"""Set-up probe, run in a fresh interpreter: import fogsched and load the
workload's scenario files, which is everything a CLI call does before its
first solve.  Usage: python3 setup_probe.py SCENARIO [SCENARIO ...]"""
import sys

from fogsched.scenario_io import load_scenario

for path in sys.argv[1:]:
    load_scenario(path)
