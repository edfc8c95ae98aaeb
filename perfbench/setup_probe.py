"""Time nlspsa-ik's set-up in this fresh interpreter and print the seconds.

Set-up is what a CLI command does before it solves: import the package,
build the argument parser and build each scenario named on the command
line. Run with the checkout's ``src`` on ``PYTHONPATH``:

    PYTHONPATH=src python3 perfbench/setup_probe.py 1.1 1.2
"""
import sys
import time

started = time.perf_counter()

from nlspsa_ik import cli  # noqa: E402

cli.build_parser()
for scenario_id in sys.argv[1:]:
    cli.builtin(scenario_id)
print(repr(time.perf_counter() - started))
