"""Set-up time in a fresh interpreter: import causalfair, then load and
validate a config, stopping before the first pipeline stage would run.

Usage: python3 bench/probe.py CONFIG.json  (with the package on PYTHONPATH)
Prints one JSON line: {"setup_s": seconds, "package": path of causalfair}.
"""

import json
import sys
import time


def main(config_path):
    start = time.perf_counter()
    import causalfair
    from causalfair import cli

    cli.load_config(config_path)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "package": causalfair.__file__}))


if __name__ == "__main__":
    main(sys.argv[1])
