"""Entry point of the TGCSA benchmark; see README.md.

    python3 perfbench/run.py --workload ba-query --seed 1 --seconds 20 --trace 0

The program is imported from src/ of the checkout this file sits in,
never from an installed copy, so a directory without the sources is an
error rather than a run against something else.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    src = HERE.parent / "src"
    if not (src / "tgcsa" / "__init__.py").is_file():
        print(f"error: no tgcsa sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import harness
    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
