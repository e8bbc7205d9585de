"""Measurement helpers shared by the test modules: peak-spacing period
estimation, a continuous-shift periodicity detector, and extremum
refinement on brute-force curves."""

import numpy as np
from scipy.optimize import minimize_scalar

from aptsim.dynamics import bell_state, evolve_pairs
from aptsim.entanglement import concurrence


def brute_concurrence(p1, p2, t, initial=None):
    """Single-point concurrence of the evolved state, full matrix route."""
    rho0 = bell_state() if initial is None else initial
    return concurrence(evolve_pairs([(p1, p2)], [t], rho0, keep_states=True)[2][0, 0])


def refined_peak_times(times, values, height=0.9):
    """Interior local maxima above `height`, refined by a three-point
    parabola. Assumes a uniform grid."""
    dt = times[1] - times[0]
    peaks = []
    for i in range(1, len(values) - 1):
        if values[i] >= values[i - 1] and values[i] > values[i + 1] and values[i] > height:
            denom = values[i - 1] - 2.0 * values[i] + values[i + 1]
            shift = 0.0 if denom == 0 else 0.5 * (values[i - 1] - values[i + 1]) / denom
            peaks.append(times[i] + shift * dt)
    return np.array(peaks)


def measured_period(times, values, height=0.9):
    """Mean spacing between successive refined peaks."""
    peaks = refined_peak_times(times, values, height)
    if len(peaks) < 2:
        raise AssertionError("need at least two interior peaks to measure a period")
    return float(np.mean(np.diff(peaks)))


def period_defect(curve_fn, base_times, base_values, shift):
    """max_t |curve(t + shift) - curve(t)| over the base grid."""
    return float(np.max(np.abs(curve_fn(base_times + shift) - base_values)))


def scan_best_period(curve_fn, base_times, t_min, t_max, step=0.01, refine_below=0.1):
    """Best candidate period in [t_min, t_max] and its defect.

    Coarse scan at `step`, then bracket refinement of every coarse local
    minimum below `refine_below`. Any true defect dip is surrounded by
    coarse values within (slope * step) of zero, so the cutoff only has
    to exceed that scale for the refinement to see every dip.
    """
    base_values = curve_fn(base_times)
    candidates = np.arange(t_min, t_max + step / 2.0, step)
    defects = np.array([period_defect(curve_fn, base_times, base_values, T)
                        for T in candidates])
    order = int(np.argmin(defects))
    best_t, best_defect = float(candidates[order]), float(defects[order])
    for i in range(1, len(candidates) - 1):
        if defects[i] > refine_below:
            continue
        if defects[i] <= defects[i - 1] and defects[i] <= defects[i + 1]:
            res = minimize_scalar(
                lambda T: period_defect(curve_fn, base_times, base_values, T),
                bounds=(candidates[i - 1], candidates[i + 1]),
                method="bounded", options={"xatol": 1e-12})
            if res.fun < best_defect:
                best_t, best_defect = float(res.x), float(res.fun)
    return best_t, best_defect


def refine_minimum(fn, lo, hi):
    res = minimize_scalar(fn, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    return float(res.x), float(res.fun)


def refine_maximum(fn, lo, hi):
    t, negv = refine_minimum(lambda t: -fn(t), lo, hi)
    return t, -negv
