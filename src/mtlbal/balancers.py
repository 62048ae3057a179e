"""Per-task loss-weighting strategies with a uniform stepping interface.

Each strategy consumes the current vector of raw task losses (plus, for
gradient-norm balancing, per-task gradient norms at a designated shared
layer), updates its internal state, and emits a positive weight per task.
The weighted total is `combine(weights, losses)`; weights are constants with
respect to model parameters, so no derivative ever flows through them. The
single exception is the learned log-variance method, whose state is updated
through its own explicit gradients.

Strategies:
  baseline  equal weights (all ones)
  ema       reciprocal of an exponential moving average of each loss
  rema      ema weights additionally multiplied by the training-rate ratio
  dwa       temperature softmax over training-rate ratios, scaled to sum K
  dwema     dwa coefficients divided by the loss moving average
  uw        learned log-variance weighting, one descent step per iteration
  gradnorm  coefficients descended so per-task gradient norms track targets

Beta convention: the smoothing factor multiplies the CURRENT loss,
ema(t) = beta * loss(t) + (1 - beta) * ema(t-1), so LARGER beta adapts
FASTER. Many EMA implementations use the opposite convention; beware.

Balancer state is single-owner mutable: one instance per training run,
updated sequentially. Snapshots are plain text and freely shareable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .textio import Fields, fmt, fmt_vec, parse_vec

logger = logging.getLogger(__name__)

#: Floor applied inside every reciprocal and ratio to keep zero losses finite.
EPS_FLOOR = 1e-8

#: Lower clamp on gradient-norm coefficients (the L1 descent can cross zero).
GRADNORM_COEFF_MIN = 1e-6


def _as_float_vector(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{what} must be a non-empty 1-d vector, got shape {arr.shape}")
    return arr


@dataclass
class LossVector:
    """Raw per-task losses at one training iteration."""

    values: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        self.values = _as_float_vector(self.values, "losses")
        nan = np.isnan(self.values)
        if nan.any():
            raise ValueError(
                f"loss for task {int(np.argmax(nan))} is NaN at iteration {self.iteration}"
            )
        if not np.isfinite(self.values).all():
            bad = int(np.argmax(~np.isfinite(self.values)))
            raise ValueError(f"loss for task {bad} is not finite at iteration {self.iteration}")
        if (self.values < 0).any():
            bad = int(np.argmax(self.values < 0))
            raise ValueError(f"loss for task {bad} is negative at iteration {self.iteration}")
        if self.iteration < 0:
            raise ValueError(f"iteration must be nonnegative, got {self.iteration}")

    @property
    def k(self) -> int:
        return self.values.size


@dataclass
class WeightVector:
    """Per-task loss coefficients; finite and strictly positive."""

    values: np.ndarray

    def __post_init__(self):
        self.values = _as_float_vector(self.values, "weights")
        if not np.isfinite(self.values).all() or (self.values <= 0).any():
            task = int(np.argmax(~(np.isfinite(self.values) & (self.values > 0))))
            raise ValueError(
                f"weights must be finite and strictly positive; task {task} has "
                f"{float(self.values[task])!r}"
            )

    @property
    def k(self) -> int:
        return self.values.size


def combine(weights: WeightVector, losses: LossVector) -> float:
    """Weighted total sum_k weight(k) * loss(k); weights are constants."""
    if weights.k != losses.k:
        raise ValueError(f"got {weights.k} weights for {losses.k} losses")
    return float(np.dot(weights.values, losses.values))


def rate_ratios(history: list, k: int) -> np.ndarray:
    """Per-task ratio of the two most recent past losses.

    `history` holds up to two previous loss vectors, oldest first. Returns
    rate(k) = loss(t-1) / max(loss(t-2), EPS_FLOOR), or all ones when fewer
    than two exist (the startup convention).
    """
    if len(history) == 2:
        return history[1] / np.maximum(history[0], EPS_FLOOR)
    return np.ones(k, dtype=np.float64)


def dwa_coefficients(rates: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature softmax over rates, scaled so the coefficients sum to K.

    Computed as (K * exp) / sum(exp) so equal rates give exactly 1.0 each.
    The max is subtracted before exponentiation to rule out overflow; the
    result is unchanged.
    """
    x = np.asarray(rates, dtype=np.float64) / temperature
    e = np.exp(x - x.max())
    return (rates.size * e) / e.sum()


#: Accepted values of each hyperparameter, written so that NaN fails.
_VALID = {
    "beta": (lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "temperature": (lambda v: v > 0, "positive"),
    "learning_rate": (lambda v: v > 0, "positive"),
    "alpha": (lambda v: v >= 0, "nonnegative"),
    "mode": (lambda v: v in ("divide", "multiply"), "'divide' or 'multiply'"),
}


class Balancer:
    """One weighting strategy: its declarations plus `update`.

    A subclass declares `hyper` (each hyperparameter with its default, in
    snapshot order), `arrays` (its state arrays, None until the first step
    sets them) and whether it `keeps_history` of the two previous loss
    vectors. The constructor takes any of these by name. The base latches
    the task count `k` on the first step, counts iterations, keeps that
    history, advances the loss moving average of the EMA family, and
    `snapshot`/`restore` work from the declarations alone.
    """

    method = ""
    hyper: dict = {}
    arrays: tuple = ()
    keeps_history = False
    requires_grad_norms = False

    def __init__(self, **values):
        for name, default in self.hyper.items():
            value = values.pop(name, default)
            valid, wanted = _VALID[name]
            if not valid(value):
                raise ValueError(f"{name} must be {wanted}, got {value!r}")
            setattr(self, name, value)
        self.k = None
        for name in self.arrays:
            value = values.pop(name, None)
            if value is not None:
                value = _as_float_vector(value, name)
                if self.k not in (None, value.size):
                    raise ValueError(f"{name} has {value.size} values for {self.k} tasks")
                self.k = value.size
            setattr(self, name, value)
        if values:
            raise TypeError(f"{type(self).__name__} got unexpected arguments {sorted(values)}")
        self.history: list = []
        self.iteration = 0

    def step(self, losses: LossVector, grad_norms: np.ndarray | None = None) -> WeightVector:
        """This iteration's weights; advances the state by one iteration."""
        if self.k is None:
            self.k = losses.k
        elif self.k != losses.k:
            raise ValueError(f"state tracks {self.k} tasks but got {losses.k} losses")
        past = self.history
        if self.keeps_history:
            self.history = past[-1:] + [losses.values.copy()]
        weights = self.update(losses, past, grad_norms)
        self.iteration += 1
        return weights

    def update(self, losses: LossVector, past: list, grad_norms) -> WeightVector:
        """The strategy: weights from this step's losses and the `past` history."""
        raise NotImplementedError

    def advance_ema(self, losses: LossVector) -> np.ndarray:
        """Update the loss moving average; the stored value stays >= EPS_FLOOR.

        First call seeds the average with the observed losses themselves, which
        avoids the startup spike a zero init would put into the reciprocal.
        """
        blended = losses.values
        if self.ema is not None:
            blended = self.beta * blended + (1.0 - self.beta) * self.ema
        self.ema = np.maximum(blended, EPS_FLOOR)
        return self.ema


class Baseline(Balancer):
    """Equal weights (all ones)."""

    method = "baseline"

    def update(self, losses, past, grad_norms):
        return WeightVector(np.ones(self.k, dtype=np.float64))


class Ema(Balancer):
    """Reciprocal of the loss moving average as weights."""

    method = "ema"
    hyper = {"beta": 0.1}
    arrays = ("ema",)
    keeps_history = True

    def update(self, losses, past, grad_norms):
        return WeightVector(1.0 / self.advance_ema(losses))


class Rema(Ema):
    """Inverse-EMA weights multiplied by the training-rate ratio.

    weight(k) = rate(k) / max(ema(k), EPS_FLOOR); with no usable history the
    rates are one and this reduces to `Ema` exactly.
    """

    method = "rema"

    def update(self, losses, past, grad_norms):
        return WeightVector(rate_ratios(past, self.k) / self.advance_ema(losses))


class Dwema(Ema):
    """Softmax-of-rates coefficients combined with the loss moving average.

    `mode` "divide" (default) gives weight(k) = dwa(k) / max(ema(k), EPS_FLOOR),
    which puts losses on a common scale of one; whenever all rates are equal
    the dwa coefficient is exactly 1 and this reduces to `Ema`. "multiply" is
    the alternative reading, dwa(k) * max(ema(k), EPS_FLOOR), where the
    coefficient is scaled up by the average magnitude instead.
    """

    method = "dwema"
    hyper = {"beta": 0.1, "temperature": 0.5, "mode": "divide"}

    def update(self, losses, past, grad_norms):
        coeff = dwa_coefficients(rate_ratios(past, self.k), self.temperature)
        floored = self.advance_ema(losses)
        return WeightVector(coeff * floored if self.mode == "multiply" else coeff / floored)


class Dwa(Balancer):
    """Softmax-of-training-rates weights; slower-converging tasks weigh more."""

    method = "dwa"
    hyper = {"temperature": 0.5}
    keeps_history = True

    def update(self, losses, past, grad_norms):
        return WeightVector(dwa_coefficients(rate_ratios(past, self.k), self.temperature))


class Uw(Balancer):
    """Learned log-variances, one descent step per iteration.

    The weights returned for iteration t come from the state BEFORE that
    step, matching the convention that the update reacts to the loss it saw.
    """

    method = "uw"
    hyper = {"learning_rate": 0.025}
    arrays = ("log_vars",)

    def update(self, losses, past, grad_norms):
        if self.log_vars is None:
            self.log_vars = np.zeros(self.k)
        _, s_gradients, weights = uw_combine(self, losses)
        self.log_vars = self.log_vars - self.learning_rate * s_gradients
        return weights


class GradNorm(Balancer):
    """Coefficients descended so per-task gradient norms track targets.

    The first step records the reference losses and returns the starting
    coefficients; every later step is one descent step.
    """

    method = "gradnorm"
    hyper = {"alpha": 1.5, "learning_rate": 0.025}
    arrays = ("coeffs", "initial_losses")
    requires_grad_norms = True

    def coefficients(self, k: int) -> np.ndarray:
        """Current coefficients, seen by the gradient-norm probe (ones before the first step)."""
        return np.ones(k, dtype=np.float64) if self.coeffs is None else self.coeffs.copy()

    def update(self, losses, past, grad_norms):
        """Relative inverse rates r(k) = (L_k(t)/L_k(0)) / mean_i(L_i(t)/L_i(0));
        targets G*(k) = mean(grad_norms) * r(k)**alpha, held constant; the step
        descends sum_k |grad_norms_k - G*(k)| in the coefficients, using the fact
        that each norm is linear in its own coefficient. Coefficients are clamped
        positive and renormalized to sum K.

        Reference losses at or below EPS_FLOOR are clamped (a task that starts
        at zero loss has no meaningful relative rate) and the clamp is logged.
        """
        if self.coeffs is None:
            self.coeffs = np.ones(self.k)
        if self.initial_losses is None:
            tiny = losses.values <= EPS_FLOOR
            if tiny.any():
                logger.warning(
                    "gradnorm: clamping near-zero initial losses for tasks %s",
                    np.flatnonzero(tiny).tolist(),
                )
            self.initial_losses = np.maximum(losses.values, EPS_FLOOR)
            return WeightVector(self.coeffs.copy())
        if grad_norms is None:
            raise ValueError("gradnorm balancer needs per-task gradient norms")
        norms = _as_float_vector(grad_norms, "grad_norms")
        if norms.size != self.k:
            raise ValueError(f"expected {self.k} gradient norms, got {norms.size}")
        if not np.isfinite(norms).all() or (norms < 0).any():
            raise ValueError("grad_norms must be finite and nonnegative")

        ratios = losses.values / np.maximum(self.initial_losses, EPS_FLOOR)
        rel_rates = ratios / max(float(ratios.mean()), EPS_FLOOR)
        targets = norms.mean() * rel_rates**self.alpha

        per_unit = norms / np.maximum(self.coeffs, EPS_FLOOR)
        gradient = np.sign(norms - targets) * per_unit
        coeffs = self.coeffs - self.learning_rate * gradient
        coeffs = np.maximum(coeffs, GRADNORM_COEFF_MIN)
        coeffs *= coeffs.size / coeffs.sum()
        self.coeffs = coeffs
        return WeightVector(coeffs.copy())


# Names the acceptance gate and earlier callers use for the state objects
# and the single-strategy updates.
EmaState, UwState, GradNormState = Ema, Uw, GradNorm


def ema_update(state: Ema, losses: LossVector) -> WeightVector:
    """Advance the loss moving average and return its reciprocal as weights."""
    return state.step(losses)


def uw_combine(state: Uw, losses: LossVector):
    """Total loss, log-variance gradients, and effective weights.

    With s the log-variances, the objective is sum_k exp(-s_k) * L_k + s_k,
    so d/ds_k = 1 - exp(-s_k) * L_k and the effective weight is exp(-s_k).
    The caller applies the returned gradients via `state.learning_rate`
    (one descent step per iteration); this function does not mutate state.
    At the stationary point exp(-s_k) = 1 / L_k.
    """
    if losses.k != state.k:
        raise ValueError(f"state tracks {state.k} tasks but got {losses.k} losses")
    weights = np.exp(-state.log_vars)
    total = float(np.sum(weights * losses.values + state.log_vars))
    s_gradients = 1.0 - weights * losses.values
    return total, s_gradients, WeightVector(weights)


def gradnorm_step(state: GradNorm, losses: LossVector, grad_norms: np.ndarray) -> WeightVector:
    """One descent step of the coefficients toward balanced gradient norms
    (see `GradNorm.update`); the reference losses must already be set."""
    if state.initial_losses is None:
        raise ValueError("initial losses not captured; the first step captures them")
    return state.step(losses, grad_norms)


_CLASSES = {cls.method: cls for cls in (Baseline, Ema, Rema, Dwema, Dwa, Uw, GradNorm)}
BALANCER_NAMES = tuple(_CLASSES)
_HYPER_NAMES = {name for cls in _CLASSES.values() for name in cls.hyper}


def make_balancer(name: str, **hyper) -> Balancer:
    """Construct a balancer by its config name.

    Takes any hyperparameter some method declares; the named method ignores
    those it does not declare and takes its declared default for each one
    left out.
    """
    if name not in _CLASSES:
        raise ValueError(f"unknown balancer {name!r}; expected one of {BALANCER_NAMES}")
    if unknown := sorted(set(hyper) - _HYPER_NAMES):
        raise TypeError(f"make_balancer got unexpected arguments {unknown}")
    cls = _CLASSES[name]
    return cls(**{h: v for h, v in hyper.items() if h in cls.hyper})


# ---------------------------------------------------------------------------
# Snapshot serialization: key = value text, floats at 17 significant digits.
# ---------------------------------------------------------------------------

_SNAPSHOT_HEADER = "balancer-state v1"


def snapshot(balancer: Balancer) -> str:
    """Serialize a balancer to human-readable key = value text.

    The document carries the method name, hyperparameters, iteration counter,
    and every state array at full decimal precision, so restoring it yields
    bit-identical subsequent weight sequences for identical loss streams.
    """
    b = balancer
    lines = [_SNAPSHOT_HEADER, f"method = {b.method}", f"iteration = {b.iteration}"]
    for name in b.hyper:
        value = getattr(b, name)
        lines.append(f"{name} = {value if isinstance(value, str) else fmt(value)}")
    if b.k is not None:
        lines.append(f"k = {b.k}")
    if isinstance(b, Ema):  # v1 records whether the EMA family's average is seeded
        lines.append(f"initialized = {'false' if b.ema is None else 'true'}")
    for name in b.arrays:
        if getattr(b, name) is not None:
            lines.append(f"{name} = {fmt_vec(getattr(b, name))}")
    lines += [f"history{i} = {fmt_vec(h)}" for i, h in enumerate(b.history)]
    return "\n".join(lines) + "\n"


def restore(text: str) -> Balancer:
    """Rebuild a balancer from `snapshot` output.

    Malformed or inconsistent text raises ValueError: every state array and
    history entry must have `k` values, `k` must be positive, the iteration
    nonnegative, and history entries numbered from 0. Non-finite state values
    are kept, since a snapshot taken at a numerical abort can hold them.
    """
    fields = Fields(text.splitlines(), _SNAPSHOT_HEADER, "balancer snapshot")
    try:
        method = fields.get("method")
        if method not in _CLASSES:
            raise ValueError(f"unknown balancer method {method!r}")
        cls = _CLASSES[method]
        iteration = int(fields.get("iteration"))
        bal = cls(**{
            name: fields.get(name) if isinstance(default, str) else float(fields.get(name))
            for name, default in cls.hyper.items()
        })
        k = fields.opt("k")
        k = None if k is None else int(k)
        initialized = fields.get("initialized") if issubclass(cls, Ema) else None
        stored = {name: fields.opt(name) for name in cls.arrays}
        history = []  # read from history0 on, so a gap leaves a key unread
        while cls.keeps_history and len(history) < 2:
            if (entry := fields.opt(f"history{len(history)}")) is None:
                break
            history.append(entry)
        fields.finish()
        if iteration < 0 or (k is not None and k < 1):
            raise ValueError(f"need iteration >= 0 and k >= 1, got {iteration} and {k}")
        if k is None and (history or any(v is not None for v in stored.values())):
            raise ValueError("state arrays present but no k")
        if initialized not in (None, "false" if stored.get("ema") is None else "true"):
            raise ValueError(f"initialized = {initialized} disagrees with the ema line")
        bal.k, bal.iteration = k, iteration
        for name, value in stored.items():
            if value is not None:
                setattr(bal, name, parse_vec(value, k, name))
        bal.history = [parse_vec(h, k, f"history{i}") for i, h in enumerate(history)]
    except ValueError as exc:
        raise ValueError(f"malformed balancer snapshot: {exc}") from exc
    return bal
