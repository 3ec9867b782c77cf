"""Times, in a fresh process, what every corrpool command pays before it starts
work: importing numpy, scipy and corrpool, and building and validating the
workload's config from its command line. Prints {"setup_s": seconds}.

    python3 perfbench/probe_setup.py '<corrpool argv as a JSON list>'

Only the standard library is loaded before the clock starts.
"""

import json
import sys
import time


def main() -> int:
    argv = json.loads(sys.argv[1])
    start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.special  # noqa: F401

    import corrpool.cli
    from corrpool.runner import ScenarioConfig

    args = corrpool.cli.build_parser().parse_args(argv)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            ScenarioConfig.from_dict(json.load(fh))
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
