"""Drive the full command-line pipeline on a generated corpus.

Synthesizes a tiny PGM image corpus, then runs every subcommand:
ingest -> fit -> cluster -> classify -> sweep -> basis, all through the same entry point the installed
``tring`` executable uses.  Outputs land in ./demo-out/cli/.
"""

from pathlib import Path

import numpy as np

from tring.cli import main

root = Path("demo-out/cli")
corpus = root / "corpus"

# Two classes of 8 noisy 16x16 images each: bright blob top-left vs
# bottom-right.
rng = np.random.default_rng(0)
for ci, cls in enumerate(["blob_tl", "blob_br"]):
    d = corpus / cls
    d.mkdir(parents=True, exist_ok=True)
    for s in range(8):
        img = rng.integers(0, 40, size=(16, 16)).astype(np.uint8)
        if ci == 0:
            img[:8, :8] = rng.integers(180, 255, size=(8, 8))
        else:
            img[8:, 8:] = rng.integers(180, 255, size=(8, 8))
        (d / f"s{s}.pgm").write_bytes(b"P5\n16 16\n255\n" + img.tobytes())

steps = [
    ["ingest", "--images", str(corpus), "--height", "8", "--width", "8",
     "--out", str(root / "data")],
    ["fit", "--data", str(root / "data/data.ten"), "--ranks", "2,2,2",
     "--tmax", "40", "--max-sweeps", "60", "--seed", "0",
     "--out", str(root / "fit")],
    ["cluster", "--data", str(root / "data/data.ten"),
     "--labels", str(root / "data/labels.txt"), "--beta", "0.1", "--p", "3",
     "--tmax", "40", "--max-sweeps", "60", "--repeats", "3",
     "--restarts", "50", "--out", str(root / "cluster")],
    ["classify", "--data", str(root / "data/data.ten"),
     "--labels", str(root / "data/labels.txt"), "--beta", "0.1", "--p", "3",
     "--label-fraction", "0.5", "--k-list", "1,3", "--tmax", "40",
     "--max-sweeps", "60", "--repeats", "2", "--out", str(root / "classify")],
    ["sweep", "--data", str(root / "data/data.ten"),
     "--labels", str(root / "data/labels.txt"), "--sweep-param", "beta",
     "--sweep-values", "0,0.1,0.3", "--tmax", "30", "--max-sweeps", "40",
     "--repeats", "2", "--restarts", "50", "--out", str(root / "sweep")],
    ["basis", "--data", str(root / "data/data.ten"), "--ranks", "2,2,2",
     "--layout", "2x2", "--tmax", "40", "--max-sweeps", "60",
     "--out", str(root / "basis")],
]

for argv in steps:
    print(f"\n$ tring {' '.join(argv)}")
    code = main(argv)
    assert code == 0, f"exit code {code}"

print("\nartifacts:")
for f in sorted(root.rglob("*")):
    if f.is_file() and f.suffix in (".csv", ".json", ".ten", ".txt"):
        print(f"  {f}")
