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


_apply_thread_cap()

from .tensor import Tensor, grad_check, no_grad, count_macs  # noqa: E402

__all__ = ["Tensor", "grad_check", "no_grad", "count_macs"]
