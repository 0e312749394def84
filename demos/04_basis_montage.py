"""Export the learned per-feature basis images as one montage.

Each feature column of the last core corresponds to one basis tensor:
replace the last core by a unit indicator on that column and contract
the rest of the ring.  With nonnegative cores the bases are nonnegative
parts that add up to the data, so they tend to look like localized
pieces of the samples.
"""

from pathlib import Path

import numpy as np

from tring import SolverConfig, basis_tensors, blob_tensor, fit, sparseness
from tring.images import montage, to_uint8, write_pnm

out = Path("demo-out")
out.mkdir(exist_ok=True)

x, _ = blob_tensor((12, 12), n_classes=4, per_class=10, noise=0.05, seed=7)
print(f"data: {x.shape[-1]} grayscale samples of {x.shape[:-1]}")

# 2 * 2 = 4 basis images
cores, report = fit(x, (2, 2, 2), SolverConfig(t_max=60, max_sweeps=120,
                                               tol=1e-8, beta=0.0, seed=1))
bases = basis_tensors(cores)
print(f"fit: {report.sweeps_run} sweeps; {len(bases)} bases of shape "
      f"{bases[0].shape}")
for i, b in enumerate(bases):
    print(f"  basis {i}: value range [{b.min():.3f}, {b.max():.3f}], "
          f"sparseness {sparseness(b):.3f}")

canvas = montage([to_uint8(b) for b in bases], rows=2, cols=2)
write_pnm(out / "basis_montage.pgm", canvas)
print(f"wrote {out / 'basis_montage.pgm'} ({canvas.shape[0]}x{canvas.shape[1]} px)")

assert np.all(np.concatenate([b.ravel() for b in bases]) >= 0)
print("all basis entries nonnegative, as guaranteed by the nonnegative cores")
