"""cfglab: distortion of classifier-free-guided diffusion on solvable targets.

Closed-form guided moments for jointly Gaussian and Gaussian-mixture targets,
Monte Carlo validation of the guided backward SDE with exact scores, and
phase-diagram sweeps over guidance strength, class density and time-ramped
guidance schedules with negative-guidance windows.
"""

__version__ = "0.1.0"
