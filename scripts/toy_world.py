"""The seeded toy world that the toy experiment and the tests share.

`toy_scene` draws a procedural in-air scene; `TOY_CONFIG` is the small
configuration (60-step schedule, width-8 denoiser) under which the end-to-end
determinism check and the pinned fingerprint run every CLI stage in seconds;
`RTOL` is the tolerance at which the tests compare a pinned toy-world number.
"""

import numpy as np

from uwdiff.images import RgbImage

# the relative tolerance of every pinned toy-world number: loose enough for
# last-bit float differences, tight enough to catch a change as small as Adam's
# eps going from 1e-8 to 1e-9 (a ~5e-7 relative shift in the trained prompt norms)
RTOL = 1e-9

TOY_CONFIG = """
[run]
seed = 11
[schedule]
steps = 60
beta_start = 3.333e-5
beta_end = 0.3333
[optimizer]
steps = 50
t_min = 5
[classifier]
width = 16
embed_dim = 8
epochs = 40
[denoiser]
width = 8
[guidance]
gamma2 = 0.05
"""


def toy_scene(gen, size=24):
    base = gen.uniform(0.2, 0.9, (3,))
    yy, xx = np.mgrid[0:size, 0:size] / size
    img = np.zeros((size, size, 3))
    for c in range(3):
        img[..., c] = base[c] + 0.35 * np.sin(
            2 * np.pi * (gen.uniform(0.5, 1.5) * xx + gen.uniform())
        ) * np.cos(2 * np.pi * (gen.uniform(0.5, 1.5) * yy + gen.uniform()))
    return RgbImage.from_array(np.clip(img, 0.02, 0.98))
