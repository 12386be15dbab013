"""Compare two results written by ``run.py --out``.

Usage: python3 hsbench/compare.py BASE.json NEW.json

Prints each metric of both runs and NEW/BASE.  The two environment blocks
must agree on everything but the code identity (git rev and source digest);
otherwise the pair is refused with exit code 2, since the numbers would
differ for reasons other than the code.
"""

import json
import sys

CODE_IDENTITY = {"git_rev", "src_sha256"}


def main(base_path: str, new_path: str) -> int:
    with open(base_path, encoding="utf-8") as f:
        base = json.load(f)
    with open(new_path, encoding="utf-8") as f:
        new = json.load(f)
    differ = sorted(k for k in base["env"].keys() | new["env"].keys()
                    if k not in CODE_IDENTITY and base["env"].get(k) != new["env"].get(k))
    if differ:
        for k in differ:
            print(f"env {k}: {base['env'].get(k)!r} != {new['env'].get(k)!r}", file=sys.stderr)
        print("refused: environment blocks differ", file=sys.stderr)
        return 2
    for name, b in base["result"]["metrics"].items():
        n = new["result"]["metrics"].get(name)
        if n is None:
            print(f"{name:28s} {b['value']:14.6g} {'-':>14s}  {b['unit']}")
            continue
        ratio = n["value"] / b["value"] if b["value"] else float("nan")
        print(f"{name:28s} {b['value']:14.6g} {n['value']:14.6g}  {b['unit']:8s} x{ratio:.3f}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
