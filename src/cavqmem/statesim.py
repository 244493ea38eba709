"""State-vector simulation of the memory protocol.

Every quantity in `metrics` has a twin here that is obtained the long way:
amplitudes on an explicit wavenumber grid are propagated through each
scattering event, the photon counter is applied as a Kraus factor sqrt(eta(k))
on the detected channel, and measurements between interactions turn the state
into a wavenumber-indexed ensemble, exactly as an unresolved detector does.
Nothing is averaged before the step that physically averages it, which is what
makes the module useful as an oracle for the closed forms.

The grid convention follows `spectral.KGrid`: amplitudes carry the envelope
f(k_j) explicitly and quadratic functionals are summed against the plain dk
weights `w`, so the norm of a single-photon state is sum_j w_j |f(k_j)|^2 = 1.

States that live on two grids are kept as the factors of their outer
products, never as node-by-node arrays.  Each scattering event acts on one
grid only, so a state that starts as a sum of r products stays one: the two
cavities of `TwoCavityState` hold rank-r factor stacks, one per grid, and the
released photon of `RetrievalOutcome` is a storage-branch factor times a
retrieval-envelope factor per polarization.  Norms, probabilities and
overlaps are contractions of r x r Gram matrices of the factors, O(r^2 n)
work and memory; only `RetrievalOutcome.photon_density`, whose output is a
node-by-node matrix, builds one.  This is an exact re-representation: every
sum that the full array would take is still taken, node by node.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidField, ZeroProbability
from .params import (
    AtomQubit,
    DetectorModel,
    PhotonQubit,
    PulseSpec,
    SystemParams,
    as_detector,
    require_normalized,
    validate,
    validate_pulse,
)
from .scattering import t_elements
from .spectral import DEFAULT_QUAD, KGrid, QuadratureConfig, build_grid

ATOM_L, ATOM_R = 0, 1
POL_L, POL_R = 0, 1

#: Probability mass below which conditioning on an outcome is refused.
TINY_PROB = 1e-300


@dataclass(frozen=True)
class JointState:
    """Pure atom-photon state on a wavenumber grid.

    amps[a, p, j] is the amplitude of atom level a (0 = |L>, 1 = |R>) with a
    photon of polarization p (0 = k_L channel, 1 = k_R channel) at grid node
    k_j.  `loss_weight` accumulates the norm shed into the spontaneous-decay
    channel by earlier scattering events.
    """

    grid: KGrid
    amps: np.ndarray
    loss_weight: float = 0.0

    @property
    def norm(self) -> float:
        return float(np.real(np.einsum("apj,apj,j->", self.amps,
                                       np.conjugate(self.amps), self.grid.w)))

    def atom_density(self) -> np.ndarray:
        """Reduced atomic density matrix, photon traced out.  Not normalized:
        its trace is the surviving probability mass."""
        return np.einsum("apj,bpj,j->ab", self.amps, np.conjugate(self.amps),
                         self.grid.w)


def prepare_input(atom: AtomQubit, photon: PhotonQubit, grid: KGrid) -> JointState:
    """Product state (atomic qubit) x (polarization qubit with envelope f)."""
    require_normalized(atom)
    require_normalized(photon)
    amps = np.zeros((2, 2, grid.n), dtype=complex)
    for a, qa in ((ATOM_L, atom.a_L), (ATOM_R, atom.a_R)):
        amps[a, POL_L] = qa * photon.c_L * grid.f
        amps[a, POL_R] = qa * photon.c_R * grid.f
    return JointState(grid=grid, amps=amps)


def _scatter(amps: np.ndarray, elements: tuple) -> np.ndarray:
    """The single-node scattering map on amps[..., a, p, j], given the
    `t_elements` (t_LL, t_RR, t_LR, t_RL) at the nodes j.

    The bright channels |L, k_L> and |R, k_R> mix through the 2x2 block of
    elements; |L, k_R> and |R, k_L> pass through untouched.
    """
    t_ll, t_rr, t_lr, t_rl = elements
    bright_l = amps[..., ATOM_L, POL_L, :]
    bright_r = amps[..., ATOM_R, POL_R, :]
    out = amps.copy()
    out[..., ATOM_L, POL_L, :] = t_ll * bright_l + t_lr * bright_r
    out[..., ATOM_R, POL_R, :] = t_rl * bright_l + t_rr * bright_r
    return out


def _scatter_state(state: JointState, elements: tuple,
                   lossless: bool) -> JointState:
    """`_scatter` on a joint state, given the `t_elements` at its grid nodes;
    unless the atom is lossless, the norm it sheds is added to loss_weight."""
    out = JointState(grid=state.grid, amps=_scatter(state.amps, elements),
                     loss_weight=state.loss_weight)
    if lossless:
        # unitary pass: keep the loss weight free of rounding residue
        return out
    return replace(out, loss_weight=out.loss_weight + state.norm - out.norm)


def apply_scattering(state: JointState, params: SystemParams) -> JointState:
    """One pass of the photon through the cavity (see `_scatter`).  Norm lost
    to spontaneous decay (gamma > 0) is added to loss_weight."""
    validate(params)
    return _scatter_state(state, t_elements(state.grid.k, params),
                          params.gamma == 0.0)


@dataclass(frozen=True)
class AtomEnsemble:
    """Atomic state after the scattered photon was counted in the k_L channel.

    The counter does not resolve k, so the atom is left in a mixture indexed
    by the grid node: branch j has (unnormalized) amplitudes beta[:, j] and
    grid weight w_j.  `probability` is the detection probability; the branch
    amplitudes keep their raw scale, so sum_j w_j |beta[:, j]|^2 equals it.
    """

    grid: KGrid
    beta: np.ndarray
    probability: float

    def density(self) -> np.ndarray:
        """Normalized 2x2 atomic density matrix of the ensemble."""
        rho = np.einsum("aj,bj,j->ab", self.beta, np.conjugate(self.beta),
                        self.grid.w)
        return rho / self.probability


def detect_photon_L(state: JointState,
                    detector: DetectorModel | float = 1.0
                    ) -> tuple[AtomEnsemble, float]:
    """Count the photon in the k_L polarization channel.

    Returns the conditioned atomic ensemble and the detection probability
    P(k_L).  Raises ZeroProbability when that outcome has no support.
    """
    eta = as_detector(detector)(state.grid.k)
    beta = np.sqrt(eta) * state.amps[:, POL_L, :]
    prob = float(np.real(np.einsum("aj,aj,j->", beta, np.conjugate(beta),
                                   state.grid.w)))
    if prob < TINY_PROB:
        raise ZeroProbability("k_L photon detection")
    return AtomEnsemble(grid=state.grid, beta=beta, probability=prob), prob


@dataclass(frozen=True)
class RetrievalOutcome:
    """Result of scattering a retrieval photon and finding the atom in |L>.

    The released photon is kept as factors: on polarization channel p, for
    storage branch j, its amplitude at retrieval node k'_j' is
    storage_amps[p, j] * release_amps[p, j'].  Row POL_L pairs the stored
    |R> amplitudes beta[ATOM_R] with t_LR f' (the scattered branch), row
    POL_R pairs beta[ATOM_L] with f' (the transparent branch); the rows keep
    the raw scale of the stored ensemble.  `probability` is P(L)
    conditioned on the earlier detection, `fidelity` the overlap of the
    released photon with the target qubit, and `loss` the decay mass shed
    during retrieval (same conditioning).
    """

    storage_grid: KGrid
    grid: KGrid
    storage_amps: np.ndarray
    release_amps: np.ndarray
    probability: float
    fidelity: float
    loss: float

    def photon_density(self) -> np.ndarray:
        """Released photon's density matrix rho[p, j', q, j''], normalized so
        that contracting the diagonal with the grid weights gives 1.  The
        storage branches are summed incoherently with their grid weights."""
        gram = _branch_gram(self.storage_amps, self.storage_grid.w)
        release = self.release_amps
        rho = np.einsum("pq,pa,qb->paqb", gram, release,
                        np.conjugate(release))
        return rho / _released_mass(gram, release, self.grid.w)


def _branch_gram(amps: np.ndarray, w: np.ndarray) -> np.ndarray:
    """G[p, q] = sum_j w_j amps[p, j] conj(amps[q, j])."""
    return np.einsum("pj,qj,j->pq", amps, np.conjugate(amps), w)


def _released_mass(gram: np.ndarray, release: np.ndarray,
                   w: np.ndarray) -> float:
    """Norm of the released photon: sum_p G[p, p] sum_j' w_j' |release[p, j']|^2."""
    per_channel = np.einsum("pa,pa,a->p", release, np.conjugate(release), w)
    return float(np.real(np.diagonal(gram) @ per_channel))


def retrieve(stored: AtomEnsemble, params: SystemParams, pulse: PulseSpec,
             quad: QuadratureConfig = DEFAULT_QUAD,
             target: PhotonQubit = PhotonQubit(0.0, 1.0)) -> RetrievalOutcome:
    """Send a k_R-polarized retrieval photon and measure the atom.

    Each stored branch j sees the fresh photon envelope f'(k'): the |R>
    component scatters (T_RR keeps k_R, T_LR converts to k_L), the |L>
    component is transparent.  Finding the atom in |L> releases the qubit
    onto the photon; the outcome fidelity compares it with `target` carried
    by the same envelope.
    """
    validate(params)
    validate_pulse(pulse)
    require_normalized(target)
    grid = build_grid(pulse, quad, k_c=params.k_c)
    return _retrieve(stored, grid, t_elements(grid.k, params),
                     params.gamma == 0.0, target)


def _retrieve(stored: AtomEnsemble, grid: KGrid, elements: tuple,
              lossless: bool, target: PhotonQubit) -> RetrievalOutcome:
    """`retrieve` on the retrieval photon's `grid`, given the `t_elements`
    at its nodes and whether the atom is lossless."""
    _, t_rr, t_lr, _ = elements
    # Atom found in |L>: the transparent |L> branch keeps polarization k_R,
    # the scattered |R> branch arrives on k_L via T_LR.
    storage_amps = stored.beta[[ATOM_R, ATOM_L]]
    release_amps = np.stack([t_lr * grid.f, grid.f])
    w1 = stored.grid.w
    w2 = grid.w
    mass = _released_mass(_branch_gram(storage_amps, w1), release_amps, w2)
    if mass < TINY_PROB:
        raise ZeroProbability("atom found in the retrieval level")
    # Overlap with the target qubit on the retrieval envelope, branch by
    # branch; the unresolved storage node makes the branches incoherent.
    target_amps = np.array([[target.c_L], [target.c_R]]) * grid.f
    channel_ovl = (release_amps * np.conjugate(target_amps)) @ w2
    ovl = channel_ovl @ storage_amps
    fidelity = float(np.real(np.sum(w1 * np.abs(ovl) ** 2)) / mass)
    survive = float(np.real(np.sum(
        w2 * np.abs(grid.f) ** 2 * (np.abs(t_rr) ** 2 + np.abs(t_lr) ** 2))))
    decay = (0.0 if lossless else
             float(np.sum(w1 * np.abs(stored.beta[ATOM_R]) ** 2) * (1.0 - survive)))
    return RetrievalOutcome(
        storage_grid=stored.grid,
        grid=grid,
        storage_amps=storage_amps,
        release_amps=release_amps,
        probability=mass / stored.probability,
        fidelity=fidelity,
        loss=decay / stored.probability,
    )


@dataclass(frozen=True)
class ReadoutOutcome:
    """Third-photon readout result: detection probability of the converted
    k_R photon and the atomic state conditioned on that click (None when the
    click has no support)."""

    probability: float
    conditioned: AtomQubit | None


def atomic_readout_via_third_photon(atom: AtomQubit, params: SystemParams,
                                    pulse: PulseSpec,
                                    quad: QuadratureConfig = DEFAULT_QUAD,
                                    detector: DetectorModel | float = 1.0
                                    ) -> ReadoutOutcome:
    """Interrogate the atom with a k_L-polarized probe photon.

    Only the |L> component converts the probe to the k_R channel (T_RL), so a
    k_R click occurs with probability |a_L|^2 [eta |T_RL|^2]_f and pins the
    atom to |R>.  A transparent pass (|R> atom) never clicks.
    """
    validate(params)
    validate_pulse(pulse)
    require_normalized(atom)
    grid = build_grid(pulse, quad, k_c=params.k_c)
    return _readout(atom, grid, t_elements(grid.k, params), detector)


def _readout(atom: AtomQubit, grid: KGrid, elements: tuple,
             detector: DetectorModel | float) -> ReadoutOutcome:
    """`atomic_readout_via_third_photon` on the probe photon's `grid`, given
    the `t_elements` at its nodes."""
    eta = as_detector(detector)(grid.k)
    click = float(np.real(grid.average(eta * np.abs(elements[3]) ** 2)))
    prob = click * abs(atom.a_L) ** 2
    if prob < TINY_PROB:
        return ReadoutOutcome(probability=prob, conditioned=None)
    return ReadoutOutcome(probability=prob, conditioned=AtomQubit(0.0, 1.0))


@dataclass(frozen=True)
class MemoryRecord:
    """End-to-end bookkeeping of one simulated store-and-retrieve cycle."""

    p_k_l: float
    p_l: float
    p_qm: float
    fidelity: float
    loss_weight: float
    readout: str
    p_readout: float | None
    p_total: float

    def to_dict(self) -> dict:
        out = {
            "P_kL": self.p_k_l,
            "P_L": self.p_l,
            "P_qm": self.p_qm,
            "fidelity": self.fidelity,
            "loss_weight": self.loss_weight,
            "readout": self.readout,
            "P_total": self.p_total,
        }
        if self.p_readout is not None:
            out["P_readout"] = self.p_readout
        return out


def run_memory_protocol(params: SystemParams, pulse: PulseSpec,
                        quad: QuadratureConfig = DEFAULT_QUAD,
                        photon: PhotonQubit = PhotonQubit(0.0, 1.0),
                        detector: DetectorModel | float = 1.0,
                        readout: str = "projective") -> MemoryRecord:
    """Simulate the full cycle: store a polarization qubit, retrieve it.

    readout="projective" ends with an ideal projective measurement of the
    atom.  readout="third_photon" heralds the same outcome with a probe
    photon instead: every retained branch acquires the identical spectral
    factor, so the released state and its fidelity are unchanged and only an
    extra success factor [eta |T_RL|^2]_f appears in p_total.
    """
    if readout not in ("projective", "third_photon"):
        raise InvalidField(readout, "unknown readout mode")
    validate(params)
    validate_pulse(pulse)
    # Storage, retrieval and probe photons share the pulse, so one grid and
    # one evaluation of the scattering elements serve the whole cycle.
    grid = build_grid(pulse, quad, k_c=params.k_c)
    state = prepare_input(AtomQubit(0.0, 1.0), photon, grid)
    elements = t_elements(grid.k, params)
    lossless = params.gamma == 0.0
    state = _scatter_state(state, elements, lossless)
    stored, p_k_l = detect_photon_L(state, detector)
    outcome = _retrieve(stored, grid, elements, lossless, photon)
    p_qm = p_k_l * outcome.probability
    if readout == "projective":
        p_readout = None
        p_total = p_qm
    else:
        probe = _readout(AtomQubit(1.0, 0.0), grid, elements, detector)
        p_readout = probe.probability
        p_total = p_qm * p_readout
    return MemoryRecord(
        p_k_l=p_k_l,
        p_l=outcome.probability,
        p_qm=p_qm,
        fidelity=outcome.fidelity,
        loss_weight=state.loss_weight + outcome.loss,
        readout=readout,
        p_readout=p_readout,
        p_total=p_total,
    )


def swap_transfer_fidelity(atom: AtomQubit, photon: PhotonQubit,
                           params: SystemParams, pulse: PulseSpec,
                           quad: QuadratureConfig = DEFAULT_QUAD) -> float:
    """One-shot swap fidelity from the propagated state.

    Scatters the photon off an arbitrary atomic pre-state, traces out the
    photon without any detection, and projects the atomic density matrix on
    the ideal swap image of the photonic qubit.  Decay mass counts as
    failure, matching the closed form in `metrics.transfer_fidelity`.
    """
    grid = build_grid(pulse, quad, k_c=params.k_c)
    state = apply_scattering(prepare_input(atom, photon, grid), params)
    rho = state.atom_density()
    psi = np.array([photon.c_R * np.exp(1j * params.theta_R),
                    -photon.c_L * np.exp(1j * params.theta_L)])
    return float(np.real(np.conjugate(psi) @ rho @ psi))


@dataclass(frozen=True)
class PhotonPair:
    """Two-photon polarization state c_LR |k_L, k'_R> + c_RL |k_R, k'_L>."""

    c_LR: complex
    c_RL: complex

    @property
    def norm_sq(self) -> float:
        return abs(self.c_LR) ** 2 + abs(self.c_RL) ** 2

    def normalized(self) -> "PhotonPair":
        n = np.sqrt(self.norm_sq)
        return PhotonPair(self.c_LR / n, self.c_RL / n)


@dataclass(frozen=True)
class TwoCavityState:
    """Pure state of two atom-cavity nodes, one photon at each, as a sum of
    rank-r outer products.

    left[r, a, p, j] is a function of atom 1 in level a with photon 1 in
    polarization channel p at node k_j of grid_1; right[r, b, q, j'] one of
    atom 2 in level b with photon 2 in channel q at node k'_j' of grid_2.
    The amplitude of (a, b, p, q, j, j') is sum_r left[r, a, p, j]
    right[r, b, q, j'].  Each cavity acts on its own factor stack, so the
    rank never grows.  `loss_weight` pools the decay mass of both cavities.
    """

    grid_1: KGrid
    grid_2: KGrid
    left: np.ndarray
    right: np.ndarray
    loss_weight: float = 0.0

    @property
    def norm(self) -> float:
        return float(np.real(np.einsum("abab->", self.atom_density())))

    def atom_density(self) -> np.ndarray:
        """Two-atom density matrix rho[a, b, c, d], both photons traced out.
        Not normalized: its trace is the surviving probability mass."""
        return _pair_density(self.left, self.right, self.grid_1.w,
                             self.grid_2.w)


def _pair_density(left: np.ndarray, right: np.ndarray, w_1: np.ndarray,
                  w_2: np.ndarray) -> np.ndarray:
    """rho[a, b, c, d] of sum_r left[r] x right[r] with the photon channels
    and nodes traced against the weights w_1 and w_2.

    Each side contributes its r x r Gram matrix with the atom index left
    open, g[r, s, a, c] = sum_{p, j} w_j left[r, a, p, j] conj(left[s, c, p, j]);
    the trace over both photons is the product of the two, summed over r, s.
    """
    gram_1 = np.einsum("rapj,scpj,j->rsac", left, np.conjugate(left), w_1)
    gram_2 = np.einsum("rbqj,sdqj,j->rsbd", right, np.conjugate(right), w_2)
    return np.einsum("rsac,rsbd->abcd", gram_1, gram_2)


def prepare_pair(pair: PhotonPair, grid_1: KGrid, grid_2: KGrid
                 ) -> TwoCavityState:
    """Both atoms in |R>, the photon pair c_LR |k_L, k'_R> + c_RL |k_R, k'_L>
    carried by the two grid envelopes: one rank term per pair amplitude."""
    require_normalized(pair)
    left = np.zeros((2, 2, 2, grid_1.n), dtype=complex)
    right = np.zeros((2, 2, 2, grid_2.n), dtype=complex)
    left[0, ATOM_R, POL_L] = pair.c_LR * grid_1.f
    right[0, ATOM_R, POL_R] = grid_2.f
    left[1, ATOM_R, POL_R] = pair.c_RL * grid_1.f
    right[1, ATOM_R, POL_L] = grid_2.f
    return TwoCavityState(grid_1=grid_1, grid_2=grid_2, left=left, right=right)


def scatter_pair(state: TwoCavityState, params_1: SystemParams,
                 params_2: SystemParams) -> TwoCavityState:
    """Scatter photon 1 off cavity 1 and photon 2 off cavity 2.

    Each event is the single-node map of `apply_scattering` on its own
    factor stack, so their order is immaterial; decay mass from both is added
    to loss_weight.
    """
    validate(params_1)
    validate(params_2)
    before = state.norm
    out = TwoCavityState(
        grid_1=state.grid_1, grid_2=state.grid_2,
        left=_scatter(state.left, t_elements(state.grid_1.k, params_1)),
        right=_scatter(state.right, t_elements(state.grid_2.k, params_2)),
        loss_weight=state.loss_weight)
    if params_1.gamma == 0.0 and params_2.gamma == 0.0:
        return out
    return replace(out, loss_weight=out.loss_weight + before - out.norm)


@dataclass(frozen=True)
class EntanglementOutcome:
    """Two-cavity storage result: heralding (or survival) probability and the
    fidelity against the swap image c_LR |RL> + c_RL |LR> of the pair."""

    probability: float
    fidelity: float
    mode: str


def entanglement_storage(pair: PhotonPair,
                         params_1: SystemParams, params_2: SystemParams,
                         pulse_1: PulseSpec, pulse_2: PulseSpec,
                         quad: QuadratureConfig = DEFAULT_QUAD,
                         detector_1: DetectorModel | float = 1.0,
                         detector_2: DetectorModel | float = 1.0,
                         mode: str = "postselect") -> EntanglementOutcome:
    """Store one photon of an entangled pair in each of two cavities.

    mode="postselect": both scattered photons are counted in their k_L
    channels and the fidelity is the heralded overlap with the swap image,
    the wavenumber-diagonal branches added coherently under the detection
    measure.  For identical cavities this reproduces the single-qubit memory
    fidelity for every input pair.

    mode="swap": no photon detection at all; the photons are traced out and
    the two-atom density matrix is projected on the swap image, decay and
    transparent passes counting as failure (probability reports the
    surviving trace).
    """
    if mode not in ("postselect", "swap"):
        raise InvalidField(mode, "unknown storage mode")
    validate_pulse(pulse_1)
    validate_pulse(pulse_2)
    grid_1 = build_grid(pulse_1, quad, k_c=params_1.k_c)
    grid_2 = build_grid(pulse_2, quad, k_c=params_2.k_c)
    state = scatter_pair(prepare_pair(pair, grid_1, grid_2), params_1,
                         params_2)
    target = np.zeros((2, 2), dtype=complex)
    target[ATOM_R, ATOM_L] = pair.c_LR
    target[ATOM_L, ATOM_R] = pair.c_RL
    if mode == "swap":
        rho4 = state.atom_density()
        fidelity = float(np.real(np.einsum("ab,abcd,cd->",
                                           np.conjugate(target), rho4, target)))
        probability = float(np.real(np.einsum("abab->", rho4)))
        return EntanglementOutcome(probability=probability, fidelity=fidelity,
                                   mode=mode)
    root_eta_1 = np.sqrt(as_detector(detector_1)(grid_1.k))
    root_eta_2 = np.sqrt(as_detector(detector_2)(grid_2.k))
    # Both photons counted in k_L: the Kraus factors act on each side's
    # POL_L channel, which keeps the state a sum of the same rank terms.
    sel_1 = state.left[:, :, POL_L, :] * root_eta_1
    sel_2 = state.right[:, :, POL_L, :] * root_eta_2
    prob = replace(state, left=sel_1[:, :, None], right=sel_2[:, :, None]).norm
    if prob < TINY_PROB:
        raise ZeroProbability("two-photon k_L detection")
    # Overlap with the swap image carried by the detected envelopes: each
    # rank term factors into one node sum per grid.
    ovl_1 = sel_1 @ (grid_1.w * root_eta_1 * np.conjugate(grid_1.f))
    ovl_2 = sel_2 @ (grid_2.w * root_eta_2 * np.conjugate(grid_2.f))
    overlap = np.einsum("ab,ra,rb->", np.conjugate(target), ovl_1, ovl_2)
    weight = (float(np.real(grid_1.average(root_eta_1 ** 2)))
              * float(np.real(grid_2.average(root_eta_2 ** 2))))
    fidelity = float(abs(overlap) ** 2 / (weight * prob))
    return EntanglementOutcome(probability=prob, fidelity=fidelity, mode=mode)
