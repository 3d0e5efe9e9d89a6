"""Import probe for setup_s.

    python3 perfbench/setup_probe.py temperedk|reference

Imports either temperedk and temperedk.cli or a fixed set of standard
library modules that takes about as long to import, then prints
time.monotonic().  That clock is system-wide, so the launching process can
subtract its own reading taken just before the launch.
"""

import sys
import time

MODULES = {
    "temperedk": ("temperedk", "temperedk.cli"),
    "reference": ("logging", "email.message", "http.client", "csv", "configparser"),
}

for name in MODULES[sys.argv[1]]:
    __import__(name)

print(time.monotonic())
