"""Windowed local attention with messenger-token channel shuffling.

A desk-scale stack: a small autodiff tensor engine, window partitioning
and shuffle-region machinery, the messenger-token transformer block and
hierarchical model, exact cost/receptive-field analysis, and a training
and ablation harness with a CLI.
"""

import os


def _apply_thread_cap() -> None:
    """Map ``MSGT_THREADS`` onto each BLAS thread variable that is not set.

    Runs on package import, before ``tensor`` loads numpy, because the
    BLAS thread pools read these variables only when numpy is loaded.
    """
    cap = os.environ.get("MSGT_THREADS")
    if not cap:
        return
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cap)


def _apply_malloc_policy() -> bool:
    """On glibc, keep the temporaries a forward frees in the heap for the next one.

    glibc's dynamic thresholds hand large freed blocks back to the OS, and the
    next ``no_grad`` forward faults them in again. Either ``mallopt`` call alone
    turns the dynamic thresholds off, so trim is set only once mmap was.
    ``CDLL(None)`` starts no subprocess, unlike ``ctypes.util.find_library``.
    Returns whether both thresholds were set; off glibc it does nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (AttributeError, ValueError, OSError):
        return False
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, 32 << 20)) and bool(mallopt(m_trim_threshold, 1 << 30))


_apply_thread_cap()
_apply_malloc_policy()

from .tensor import Tensor, grad_check, no_grad, count_macs  # noqa: E402

__all__ = ["Tensor", "grad_check", "no_grad", "count_macs"]
