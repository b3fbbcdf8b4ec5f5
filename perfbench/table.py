"""Print the kernel tables of traced runs: median microseconds per call by size.

    python3 perfbench/run.py --workload corpus-large --seed 0 --seconds 20 --trace 1
    python3 perfbench/table.py --seed 0

One table per workload whose traced result for that seed is in .bench_out/.
"""

import argparse
import json
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".bench_out"
KERNELS = ("linalg.det", "linalg.inverse", "linalg.charpoly", "linalg.mat_mul",
           "qform.diagonalize", "qform.invariants")
SIZES = (2, 4, 6, 12)


def table(metrics: dict) -> str:
    lines = ["| kernel | " + " | ".join(f"n={n}" for n in SIZES) + " |",
             "|---|" + "---:|" * len(SIZES)]
    for k in KERNELS:
        cells = [f"{metrics[f'{k}.n{n}.us']['value']:.0f}" for n in SIZES]
        lines.append(f"| `{k}` | " + " | ".join(cells) + " |")
    for k in ("localfield.hilbert_qp", "localfield.square_class"):
        lines.append(f"| `{k}` | {metrics[f'{k}.us']['value']:.1f} (any size) |"
                     + " |" * (len(SIZES) - 1))
    return "\n".join(lines)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    seed = ap.parse_args().seed
    for path in sorted(OUT.glob(f"result-*-seed{seed}-trace1.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        stamp = doc["stamp"]
        print(f"### {stamp['workload']}, seed {seed}, {stamp['seconds']} s, "
              f"{stamp['cpu_model']} x{stamp['nproc']}, Python {stamp['python']}, "
              f"{stamp['git_describe']}\n")
        print(table(doc["result"]["metrics"]) + "\n")


if __name__ == "__main__":
    main()
