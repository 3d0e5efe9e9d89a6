"""Write golden.json: exit code and stdout sha256 of every catalog_export
command, as the current temperedk produces them.

The file was recorded once from the code the benchmark was introduced
against; temperedk's CLI output is meant to stay byte-identical, so a
mismatch is a failure to explain, not a file to re-record.

    PYTHONPATH=src python3 perfbench/record_golden.py
"""

import json

from workloads import CATALOG_COMMANDS, GOLDEN_PATH, cli_fingerprint, run_cli


def main() -> None:
    entries = [{"argv": list(argv), **cli_fingerprint(*run_cli(argv))} for argv in CATALOG_COMMANDS]
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({"commands": entries}, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
