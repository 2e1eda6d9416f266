"""Underwater image enhancement toolkit.

Paired-data synthesis (color transfer and physical scattering), a guided
diffusion core verified against analytic Gaussian oracles, a prompt-learned
joint-embedding classifier with spatial attention, composite training losses,
and the standard underwater image quality metric suite.
"""

__version__ = "0.1.0"
