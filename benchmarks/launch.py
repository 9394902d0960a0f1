"""Run the implinear CLI in this fresh process and record its phase times.

    python3 launch.py TIMES_JSON CONFIG_JSON -- <implinear CLI arguments>

This is what the `implinear` console script does (import implinear.cli,
call main, exit with its code), plus three CLOCK_MONOTONIC stamps written
to TIMES_JSON: after `import implinear.cli`, after loading the config (the
end of set-up), and after main returns.  An exception propagates as a
traceback, exactly as it would from the console script.
"""

import json
import sys
import time


def main() -> int:
    times_path, config_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py TIMES_JSON CONFIG_JSON -- <cli args>")
    t_start = time.monotonic()
    from implinear import cli
    from implinear.harness import load_spec

    t_imported = time.monotonic()
    load_spec(config_path)
    t_ready = time.monotonic()
    code = cli.main(cli_args)
    t_done = time.monotonic()
    with open(times_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"start": t_start, "imported": t_imported, "ready": t_ready, "done": t_done},
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
