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
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

#: Floor applied inside every reciprocal and ratio to keep zero losses finite.
EPS_FLOOR = 1e-8

#: Lower clamp on gradient-norm coefficients (the L1 descent can cross zero).
GRADNORM_COEFF_MIN = 1e-6

BALANCER_NAMES = ("baseline", "ema", "rema", "dwema", "dwa", "uw", "gradnorm")


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


@dataclass
class EmaState:
    """Loss moving average plus the two-deep loss history for rate ratios."""

    beta: float
    k: int | None = None
    ema: np.ndarray | None = None
    history: list = field(default_factory=list)  # up to two previous loss vectors
    initialized: bool = False

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")


@dataclass
class DwaState:
    """Temperature plus the two-deep loss history for rate ratios."""

    temperature: float
    k: int | None = None
    history: list = field(default_factory=list)

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")


@dataclass
class DwemaState(EmaState):
    """EMA state extended with a softmax temperature over training rates.

    `mode` selects how the softmax coefficient is combined with the loss
    moving average: "divide" (default) puts losses on a common scale of one;
    "multiply" is the alternative reading where the coefficient is scaled up
    by the average magnitude instead.
    """

    temperature: float = 0.5
    mode: str = "divide"

    def __post_init__(self):
        super().__post_init__()
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.mode not in ("divide", "multiply"):
            raise ValueError(f"mode must be 'divide' or 'multiply', got {self.mode!r}")


@dataclass
class UwState:
    """Learned per-task log-variances and their descent step size."""

    log_vars: np.ndarray
    learning_rate: float

    def __post_init__(self):
        self.log_vars = _as_float_vector(self.log_vars, "log_vars")
        if not np.isfinite(self.log_vars).all():
            raise ValueError("log_vars must be finite")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")

    @property
    def k(self) -> int:
        return self.log_vars.size


@dataclass
class GradNormState:
    """Gradient-norm balancing coefficients and their fixed reference losses."""

    coeffs: np.ndarray
    alpha: float = 1.5
    learning_rate: float = 0.025
    initial_losses: np.ndarray | None = None

    def __post_init__(self):
        self.coeffs = _as_float_vector(self.coeffs, "coeffs")
        if self.alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")

    @property
    def k(self) -> int:
        return self.coeffs.size


def _check_k(state, losses: LossVector) -> None:
    """Latch the task count on first use; reject mismatches afterwards."""
    if state.k is None:
        state.k = losses.k
    elif state.k != losses.k:
        raise ValueError(f"state tracks {state.k} tasks but got {losses.k} losses")


def _shift_history(state, values: np.ndarray) -> None:
    state.history.append(values.copy())
    if len(state.history) > 2:
        del state.history[0]


def _advance_ema(state, losses: LossVector) -> np.ndarray:
    """Update the loss moving average; the stored value stays >= EPS_FLOOR.

    First call seeds the average with the observed losses themselves, which
    avoids the startup spike a zero init would put into the reciprocal.
    """
    if not state.initialized:
        state.ema = losses.values.copy()
        state.initialized = True
    else:
        state.ema = state.beta * losses.values + (1.0 - state.beta) * state.ema
    state.ema = np.maximum(state.ema, EPS_FLOOR)
    return state.ema


def training_rates(state, k: int | None = None) -> np.ndarray:
    """Per-task ratio of the two most recent past losses.

    Returns rate(k) = loss(t-1) / max(loss(t-2), EPS_FLOOR), or all ones when
    fewer than two history entries exist (the startup convention).
    """
    hist = state.history
    if len(hist) >= 2:
        return hist[-1] / np.maximum(hist[-2], EPS_FLOOR)
    n = state.k if state.k is not None else (len(hist[0]) if hist else k)
    if n is None:
        raise ValueError("task count unknown: empty history and no k latched")
    return np.ones(n, dtype=np.float64)


def ema_update(state: EmaState, losses: LossVector) -> WeightVector:
    """Advance the loss moving average and return its reciprocal as weights."""
    _check_k(state, losses)
    floored = _advance_ema(state, losses)
    _shift_history(state, losses.values)
    return WeightVector(1.0 / floored)


def dwa_coefficients(rates: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature softmax over rates, scaled so the coefficients sum to K.

    Computed as (K * exp) / sum(exp) so equal rates give exactly 1.0 each.
    The max is subtracted before exponentiation to rule out overflow; the
    result is unchanged.
    """
    x = np.asarray(rates, dtype=np.float64) / temperature
    e = np.exp(x - x.max())
    return (rates.size * e) / e.sum()


def dwa_weights(state: DwaState, losses: LossVector) -> WeightVector:
    """Softmax-of-training-rates weights; slower-converging tasks weigh more."""
    _check_k(state, losses)
    rates = training_rates(state)
    _shift_history(state, losses.values)
    return WeightVector(dwa_coefficients(rates, state.temperature))


def rema_weights(state: EmaState, losses: LossVector) -> WeightVector:
    """Inverse-EMA weights multiplied by the training-rate ratio.

    weight(k) = rate(k) / max(ema(k), EPS_FLOOR); with no usable history the
    rates are one and this reduces to `ema_update` exactly.
    """
    _check_k(state, losses)
    rates = training_rates(state)
    floored = _advance_ema(state, losses)
    _shift_history(state, losses.values)
    return WeightVector(rates / floored)


def dwema_weights(state: DwemaState, losses: LossVector) -> WeightVector:
    """Softmax-of-rates coefficients combined with the loss moving average.

    In "divide" mode weight(k) = dwa(k) / max(ema(k), EPS_FLOOR); whenever all
    rates are equal the dwa coefficient is exactly 1 and this reduces to
    `ema_update`. "multiply" mode uses dwa(k) * max(ema(k), EPS_FLOOR).
    """
    _check_k(state, losses)
    rates = training_rates(state)
    coeff = dwa_coefficients(rates, state.temperature)
    floored = _advance_ema(state, losses)
    _shift_history(state, losses.values)
    if state.mode == "multiply":
        return WeightVector(coeff * floored)
    return WeightVector(coeff / floored)


def uw_combine(state: UwState, losses: LossVector):
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


def gradnorm_capture_initial(state: GradNormState, losses: LossVector) -> None:
    """Record the reference losses used for relative training rates.

    Must run once, at the first observed iteration, before any step. Losses
    at or below EPS_FLOOR are clamped (a task that starts at zero loss has no
    meaningful relative rate) and the clamp is logged.
    """
    if state.initial_losses is not None:
        raise ValueError("initial losses already captured")
    if losses.k != state.k:
        raise ValueError(f"state tracks {state.k} tasks but got {losses.k} losses")
    values = losses.values.copy()
    tiny = values <= EPS_FLOOR
    if tiny.any():
        logger.warning(
            "gradnorm: clamping near-zero initial losses for tasks %s",
            np.flatnonzero(tiny).tolist(),
        )
        values = np.maximum(values, EPS_FLOOR)
    state.initial_losses = values


def gradnorm_step(
    state: GradNormState, losses: LossVector, grad_norms: np.ndarray
) -> WeightVector:
    """One descent step of the coefficients toward balanced gradient norms.

    Relative inverse rates r(k) = (L_k(t)/L_k(0)) / mean_i(L_i(t)/L_i(0));
    targets G*(k) = mean(grad_norms) * r(k)**alpha, held constant; the step
    descends sum_k |grad_norms_k - G*(k)| in the coefficients, using the fact
    that each norm is linear in its own coefficient. Coefficients are clamped
    positive and renormalized to sum K.
    """
    if state.initial_losses is None:
        raise ValueError("initial losses not captured; call gradnorm_capture_initial first")
    if losses.k != state.k:
        raise ValueError(f"state tracks {state.k} tasks but got {losses.k} losses")
    norms = _as_float_vector(grad_norms, "grad_norms")
    if norms.size != state.k:
        raise ValueError(f"expected {state.k} gradient norms, got {norms.size}")
    if not np.isfinite(norms).all() or (norms < 0).any():
        raise ValueError("grad_norms must be finite and nonnegative")

    ratios = losses.values / np.maximum(state.initial_losses, EPS_FLOOR)
    rel_rates = ratios / max(float(ratios.mean()), EPS_FLOOR)
    targets = norms.mean() * rel_rates**state.alpha

    per_unit = norms / np.maximum(state.coeffs, EPS_FLOOR)
    gradient = np.sign(norms - targets) * per_unit
    coeffs = state.coeffs - state.learning_rate * gradient
    coeffs = np.maximum(coeffs, GRADNORM_COEFF_MIN)
    coeffs *= coeffs.size / coeffs.sum()
    state.coeffs = coeffs
    return WeightVector(coeffs.copy())


def combine(weights: WeightVector, losses: LossVector) -> float:
    """Weighted total sum_k weight(k) * loss(k); weights are constants."""
    if weights.k != losses.k:
        raise ValueError(f"got {weights.k} weights for {losses.k} losses")
    return float(np.dot(weights.values, losses.values))


# ---------------------------------------------------------------------------
# Uniform stepping interface used by the training harness.
# ---------------------------------------------------------------------------


class Balancer:
    """Base class: counts iterations and dispatches to the strategy update."""

    method = ""
    requires_grad_norms = False

    def __init__(self):
        self.iteration = 0

    def step(self, losses: LossVector, grad_norms: np.ndarray | None = None) -> WeightVector:
        weights = self._update(losses, grad_norms)
        self.iteration += 1
        return weights

    def _update(self, losses, grad_norms):
        raise NotImplementedError

    def coefficients(self, k: int) -> np.ndarray:
        """Current weights seen by a gradient-norm probe (ones unless learned)."""
        return np.ones(k, dtype=np.float64)


class BaselineBalancer(Balancer):
    method = "baseline"

    def __init__(self):
        super().__init__()
        self.k: int | None = None

    def _update(self, losses, grad_norms):
        _check_k(self, losses)
        return WeightVector(np.ones(losses.k, dtype=np.float64))


class EmaBalancer(Balancer):
    method = "ema"

    def __init__(self, beta: float):
        super().__init__()
        self.state = EmaState(beta=beta)

    def _update(self, losses, grad_norms):
        return ema_update(self.state, losses)


class RemaBalancer(Balancer):
    method = "rema"

    def __init__(self, beta: float):
        super().__init__()
        self.state = EmaState(beta=beta)

    def _update(self, losses, grad_norms):
        return rema_weights(self.state, losses)


class DwaBalancer(Balancer):
    method = "dwa"

    def __init__(self, temperature: float):
        super().__init__()
        self.state = DwaState(temperature=temperature)

    def _update(self, losses, grad_norms):
        return dwa_weights(self.state, losses)


class DwemaBalancer(Balancer):
    method = "dwema"

    def __init__(self, beta: float, temperature: float, mode: str = "divide"):
        super().__init__()
        self.state = DwemaState(beta=beta, temperature=temperature, mode=mode)

    def _update(self, losses, grad_norms):
        return dwema_weights(self.state, losses)


class UwBalancer(Balancer):
    """Applies one log-variance descent step per iteration.

    The weights returned for iteration t come from the state BEFORE that
    step, matching the convention that the update reacts to the loss it saw.
    """

    method = "uw"

    def __init__(self, learning_rate: float):
        super().__init__()
        self.learning_rate = learning_rate
        self.state: UwState | None = None

    def _update(self, losses, grad_norms):
        if self.state is None:
            self.state = UwState(
                log_vars=np.zeros(losses.k), learning_rate=self.learning_rate
            )
        total, s_gradients, weights = uw_combine(self.state, losses)
        self.state.log_vars = self.state.log_vars - self.state.learning_rate * s_gradients
        return weights


class GradNormBalancer(Balancer):
    """Captures reference losses on the first call, then descends coefficients."""

    method = "gradnorm"
    requires_grad_norms = True

    def __init__(self, alpha: float = 1.5, learning_rate: float = 0.025):
        super().__init__()
        self.alpha = alpha
        self.learning_rate = learning_rate
        self.state: GradNormState | None = None

    def coefficients(self, k: int) -> np.ndarray:
        if self.state is not None:
            return self.state.coeffs.copy()
        return np.ones(k, dtype=np.float64)

    def _update(self, losses, grad_norms):
        if self.state is None:
            self.state = GradNormState(
                coeffs=np.ones(losses.k),
                alpha=self.alpha,
                learning_rate=self.learning_rate,
            )
            gradnorm_capture_initial(self.state, losses)
            return WeightVector(self.state.coeffs.copy())
        if grad_norms is None:
            raise ValueError("gradnorm balancer needs per-task gradient norms")
        return gradnorm_step(self.state, losses, grad_norms)


def make_balancer(
    name: str,
    *,
    beta: float = 0.1,
    temperature: float = 0.5,
    alpha: float = 1.5,
    learning_rate: float = 0.025,
    dwema_mode: str = "divide",
) -> Balancer:
    """Construct a balancer by its config name."""
    if name == "baseline":
        return BaselineBalancer()
    if name == "ema":
        return EmaBalancer(beta)
    if name == "rema":
        return RemaBalancer(beta)
    if name == "dwa":
        return DwaBalancer(temperature)
    if name == "dwema":
        return DwemaBalancer(beta, temperature, dwema_mode)
    if name == "uw":
        return UwBalancer(learning_rate)
    if name == "gradnorm":
        return GradNormBalancer(alpha, learning_rate)
    raise ValueError(f"unknown balancer {name!r}; expected one of {BALANCER_NAMES}")


# ---------------------------------------------------------------------------
# Snapshot serialization: key = value text, floats at 17 significant digits.
# ---------------------------------------------------------------------------

_SNAPSHOT_HEADER = "balancer-state v1"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_vec(arr: np.ndarray) -> str:
    return ",".join(_fmt(v) for v in arr)


def _parse_vec(text: str) -> np.ndarray:
    return np.array([float(p) for p in text.split(",")], dtype=np.float64)


def snapshot(balancer: Balancer) -> str:
    """Serialize a balancer to human-readable key = value text.

    The document carries the method name, hyperparameters, iteration counter,
    and every state array at full decimal precision, so restoring it yields
    bit-identical subsequent weight sequences for identical loss streams.
    """
    lines = [_SNAPSHOT_HEADER, f"method = {balancer.method}", f"iteration = {balancer.iteration}"]

    def put(key, value):
        lines.append(f"{key} = {value}")

    if isinstance(balancer, BaselineBalancer):
        if balancer.k is not None:
            put("k", balancer.k)
    elif isinstance(balancer, (EmaBalancer, RemaBalancer, DwemaBalancer)):
        st = balancer.state
        put("beta", _fmt(st.beta))
        if isinstance(balancer, DwemaBalancer):
            put("temperature", _fmt(st.temperature))
            put("mode", st.mode)
        if st.k is not None:
            put("k", st.k)
        put("initialized", "true" if st.initialized else "false")
        if st.ema is not None:
            put("ema", _fmt_vec(st.ema))
        for i, h in enumerate(st.history):
            put(f"history{i}", _fmt_vec(h))
    elif isinstance(balancer, DwaBalancer):
        st = balancer.state
        put("temperature", _fmt(st.temperature))
        if st.k is not None:
            put("k", st.k)
        for i, h in enumerate(st.history):
            put(f"history{i}", _fmt_vec(h))
    elif isinstance(balancer, UwBalancer):
        put("learning_rate", _fmt(balancer.learning_rate))
        if balancer.state is not None:
            put("k", balancer.state.k)
            put("log_vars", _fmt_vec(balancer.state.log_vars))
    elif isinstance(balancer, GradNormBalancer):
        put("alpha", _fmt(balancer.alpha))
        put("learning_rate", _fmt(balancer.learning_rate))
        if balancer.state is not None:
            put("k", balancer.state.k)
            put("coeffs", _fmt_vec(balancer.state.coeffs))
            if balancer.state.initial_losses is not None:
                put("initial_losses", _fmt_vec(balancer.state.initial_losses))
    else:
        raise ValueError(f"cannot snapshot balancer of type {type(balancer).__name__}")
    return "\n".join(lines) + "\n"


def _pop(fields: dict, key: str, required: bool = True) -> str | None:
    if key in fields:
        return fields.pop(key)
    if required:
        raise ValueError(f"snapshot missing required key {key!r}")
    return None


def restore(text: str) -> Balancer:
    """Rebuild a balancer from `snapshot` output; malformed text is an error."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _SNAPSHOT_HEADER:
        raise ValueError("not a balancer snapshot (missing header)")
    fields: dict[str, str] = {}
    for ln in lines[1:]:
        if " = " not in ln:
            raise ValueError(f"malformed snapshot line: {ln!r}")
        key, value = ln.split(" = ", 1)
        if key in fields:
            raise ValueError(f"duplicate snapshot key {key!r}")
        fields[key] = value

    try:
        method = _pop(fields, "method")
        iteration = int(_pop(fields, "iteration"))

        if method == "baseline":
            bal = BaselineBalancer()
            k = _pop(fields, "k", required=False)
            bal.k = int(k) if k is not None else None
        elif method in ("ema", "rema", "dwema"):
            beta = float(_pop(fields, "beta"))
            if method == "dwema":
                bal = DwemaBalancer(
                    beta, float(_pop(fields, "temperature")), _pop(fields, "mode")
                )
            elif method == "ema":
                bal = EmaBalancer(beta)
            else:
                bal = RemaBalancer(beta)
            st = bal.state
            k = _pop(fields, "k", required=False)
            st.k = int(k) if k is not None else None
            st.initialized = {"true": True, "false": False}[_pop(fields, "initialized")]
            ema = _pop(fields, "ema", required=st.initialized)
            if ema is not None:
                st.ema = _parse_vec(ema)
            for i in range(2):
                h = _pop(fields, f"history{i}", required=False)
                if h is not None:
                    st.history.append(_parse_vec(h))
        elif method == "dwa":
            bal = DwaBalancer(float(_pop(fields, "temperature")))
            k = _pop(fields, "k", required=False)
            bal.state.k = int(k) if k is not None else None
            for i in range(2):
                h = _pop(fields, f"history{i}", required=False)
                if h is not None:
                    bal.state.history.append(_parse_vec(h))
        elif method == "uw":
            bal = UwBalancer(float(_pop(fields, "learning_rate")))
            k = _pop(fields, "k", required=False)
            if k is not None:
                log_vars = _parse_vec(_pop(fields, "log_vars"))
                if log_vars.size != int(k):
                    raise ValueError("log_vars length disagrees with k")
                bal.state = UwState(log_vars=log_vars, learning_rate=bal.learning_rate)
        elif method == "gradnorm":
            bal = GradNormBalancer(
                float(_pop(fields, "alpha")), float(_pop(fields, "learning_rate"))
            )
            k = _pop(fields, "k", required=False)
            if k is not None:
                coeffs = _parse_vec(_pop(fields, "coeffs"))
                if coeffs.size != int(k):
                    raise ValueError("coeffs length disagrees with k")
                bal.state = GradNormState(
                    coeffs=coeffs, alpha=bal.alpha, learning_rate=bal.learning_rate
                )
                init = _pop(fields, "initial_losses", required=False)
                if init is not None:
                    bal.state.initial_losses = _parse_vec(init)
        else:
            raise ValueError(f"unknown balancer method {method!r}")
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed balancer snapshot: {exc}") from exc

    if fields:
        raise ValueError(f"unknown snapshot keys: {sorted(fields)}")
    bal.iteration = iteration
    return bal
