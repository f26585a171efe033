"""Shared numeric kernels: parameter tensors, tempered softmax, Adagrad, gradient checking.

All kernels operate on plain numpy arrays and never allocate hidden state, so
the same code path serves 32-bit training and 64-bit oracle evaluation; the
dtype of the arrays passed in decides which one you get.

scatter_add_rows, which every sparse gradient goes through, views an
even-width float buffer and gradients of its dtype as complex pairs: a
complex add is two independent IEEE adds, one per lane, so adding pairs in
the row-wise index order gives the same bits with half the index and half
the np.add.at elements.  Odd widths and mixed dtypes keep the real flat
path.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "ParamTensor",
    "softmax_with_temperature",
    "log_softmax_with_temperature",
    "adagrad_step",
    "scatter_add_rows",
    "sorted_unique",
    "finite_diff_check",
]


@dataclass
class ParamTensor:
    """A trainable array bundled with its Adagrad squared-gradient accumulator.

    values and accum always share shape and dtype; the accumulator starts at
    zero and only ever grows, which is what gives Adagrad its per-coordinate
    step-size decay.
    """

    values: np.ndarray
    accum: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)
        if self.accum is None:
            self.accum = np.zeros_like(self.values)
        else:
            self.accum = np.asarray(self.accum, dtype=self.values.dtype)
        if self.accum.shape != self.values.shape:
            raise ValueError(
                f"accumulator shape {self.accum.shape} does not match values shape {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("parameter values must be finite")
        if np.any(self.accum < 0) or not np.all(np.isfinite(self.accum)):
            raise ValueError("accumulator entries must be finite and nonnegative")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    def copy(self) -> "ParamTensor":
        return ParamTensor(self.values.copy(), self.accum.copy())

    def astype(self, dtype) -> "ParamTensor":
        return ParamTensor(self.values.astype(dtype), self.accum.astype(dtype))


def softmax_with_temperature(logits: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """Tempered softmax along the last axis.

    Logits are divided by tau before exponentiation, and the row maximum is
    subtracted first so large scores cannot overflow.  The output rows are
    proper distributions: nonnegative, summing to 1.

    >>> softmax_with_temperature(np.array([2.0, 0.0]), 1.0).round(6).tolist()
    [0.880797, 0.119203]
    """
    e = np.exp(_shifted_logits(logits, tau))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax_with_temperature(logits: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """Log of softmax_with_temperature, computed without forming the softmax."""
    z = _shifted_logits(logits, tau)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _shifted_logits(logits: np.ndarray, tau: float) -> np.ndarray:
    """Validated logits divided by tau, less their maximum along the last axis."""
    z = np.asarray(logits)
    if z.size == 0:
        raise ValueError("softmax of an empty score vector is undefined")
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax input contains non-finite entries")
    if not np.isfinite(tau) or tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    z = z / z.dtype.type(tau) if np.issubdtype(z.dtype, np.floating) else z / tau
    return z - z.max(axis=-1, keepdims=True)


def adagrad_step(
    param: ParamTensor,
    grad: np.ndarray,
    lr: float = 0.1,
    eps: float = 1e-8,
    rows: np.ndarray | None = None,
) -> ParamTensor:
    """One in-place Adagrad update.

    accum += grad**2; values -= lr * grad / (sqrt(accum) + eps).

    With rows given, grad holds one row per entry of rows and only those rows
    of the parameter are touched; all other rows keep their values and
    accumulators bit for bit.  Returns the mutated param for chaining.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if eps < 0:
        raise ValueError(f"epsilon must be nonnegative, got {eps}")
    g = np.asarray(grad, dtype=param.values.dtype)
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient contains non-finite entries")
    if rows is None:
        if g.shape != param.values.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter shape {param.shape}")
        param.accum += g * g
        if eps == 0:
            # 0/0 protection: zero-gradient coordinates stay untouched
            step = np.divide(lr * g, np.sqrt(param.accum), out=np.zeros_like(g), where=g != 0)
            param.values -= step
        else:
            param.values -= lr * g / (np.sqrt(param.accum) + eps)
    else:
        rows = np.asarray(rows, dtype=np.int64)
        if g.shape != (len(rows),) + param.values.shape[1:]:
            raise ValueError("row gradient shape does not match the selected rows")
        acc = np.take(param.accum, rows, axis=0) + g * g
        param.accum[rows] = acc
        vals = np.take(param.values, rows, axis=0)
        if eps == 0:
            vals -= np.divide(lr * g, np.sqrt(acc), out=np.zeros_like(g), where=g != 0)
        else:
            vals -= lr * g / (np.sqrt(acc) + eps)
        param.values[rows] = vals
    return param


# native-order float dtypes and the complex dtypes whose two lanes are one pair of them
_PAIR_DTYPES = {np.dtype(np.float32): np.complex64, np.dtype(np.float64): np.complex128}


def scatter_add_rows(buf: np.ndarray, rows: np.ndarray, grads: np.ndarray) -> None:
    """In place, buf[rows[i]] += grads[i] for every i; repeated rows all count.

    buf is a C-contiguous (n, d) array, rows is 1-D and grads is
    (len(rows), d); any other grads shape raises ValueError, so a stray
    broadcast never spreads one value over whole rows.  The scatter runs as
    one np.add.at over the flattened buffer, which adds each element's
    contributions in index order exactly as the row-wise
    np.add.at(buf, rows, grads) does, so the result is the same bits.  When d
    is even and buf and grads share a float32 or float64 dtype, both are
    viewed as complex64 or complex128 pairs first: a complex add is two
    independent IEEE adds, one per lane, in the same index order, so the
    bits still match while the flat index and the np.add.at element count
    halve.  Any other input (odd d, mixed dtypes, which keep their promoted
    arithmetic, non-native byte order, integers) takes the real flat path.
    """
    if buf.ndim != 2 or not buf.flags.c_contiguous:
        raise ValueError("scatter_add_rows needs a C-contiguous 2-D buffer")
    rows = np.asarray(rows, dtype=np.int64)
    grads = np.asarray(grads)
    d = buf.shape[1]
    if rows.ndim != 1 or grads.shape != (len(rows), d):
        raise ValueError(f"grads of shape {grads.shape} do not match rows of shape {rows.shape} in an (n, {d}) buffer")
    flat_buf, flat_grads = buf.reshape(-1), grads.reshape(-1)
    pair = _PAIR_DTYPES.get(buf.dtype)
    if pair is not None and d % 2 == 0 and grads.dtype == buf.dtype:
        flat_buf, flat_grads, d = flat_buf.view(pair), flat_grads.view(pair), d // 2
    np.add.at(flat_buf, (rows[:, None] * d + np.arange(d)).reshape(-1), flat_grads)


def sorted_unique(values) -> np.ndarray:
    """The distinct elements of the flattened integer array values, ascending.

    The same array as the values-only np.unique(values), built from np.sort
    and a mask that keeps the first element and each element that differs
    from its predecessor.  NumPy 2's np.unique takes a hash path when asked
    for values only, which is over ten times slower on int64 keys (2.7 ms
    against 0.16 ms for 18.7k random keys, NumPy 2.4.6, one thread).  NaN
    never equals its predecessor, so float input with NaNs keeps every NaN.
    """
    flat = np.sort(np.asarray(values).reshape(-1))
    first = np.empty(len(flat), dtype=bool)
    first[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=first[1:])
    return flat[first]


def finite_diff_check(
    loss_fn: Callable[[], float],
    params: Mapping[str, np.ndarray] | np.ndarray,
    analytic_grad: Mapping[str, np.ndarray] | np.ndarray,
    h: float = 1e-5,
    max_coords_per_array: int = 64,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare analytic gradients against central finite differences.

    loss_fn must recompute the loss from the arrays in params on every call;
    this function perturbs coordinates of those arrays in place, evaluates the
    loss at +h and -h, restores the coordinate, and compares
    (f(x+h) - f(x-h)) / 2h to the matching analytic entry.  Arrays larger than
    max_coords_per_array are subsampled with rng.  Returns the maximum
    relative error over all checked coordinates, with the denominator
    max(|analytic|, |numeric|, 1e-8).

    Pass float64 arrays; the comparison is meaningless at float32 precision.
    """
    if isinstance(params, np.ndarray):
        params = {"param": params}
        analytic_grad = {"param": analytic_grad}  # type: ignore[dict-item]
    if set(params) != set(analytic_grad):
        raise ValueError("params and analytic_grad must hold the same keys")
    if rng is None:
        rng = np.random.default_rng(0)

    worst = 0.0
    for name, arr in params.items():
        ana = np.asarray(analytic_grad[name])
        if ana.shape != arr.shape:
            raise ValueError(f"analytic gradient for {name!r} has shape {ana.shape}, expected {arr.shape}")
        flat = arr.reshape(-1)
        n = flat.size
        if n <= max_coords_per_array:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords_per_array, replace=False)
        ana_flat = ana.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            f_plus = float(loss_fn())
            flat[c] = orig - h
            f_minus = float(loss_fn())
            flat[c] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise ValueError(f"loss is non-finite while perturbing {name!r}[{c}]")
            numeric = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(float(ana_flat[c])), abs(numeric), 1e-8)
            rel = abs(float(ana_flat[c]) - numeric) / denom
            if rel > worst:
                worst = rel
    return worst
