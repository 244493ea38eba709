"""State-vector simulation of the memory protocol.

Every quantity in `metrics` has a twin here that is obtained the long way:
a photon on an explicit wavenumber grid meets each cavity through the
scattering elements at the grid's nodes, the photon counter is applied as a
Kraus factor sqrt(eta) on the detected channel, and measurements between
interactions turn the state into a wavenumber-indexed ensemble, exactly as
an unresolved detector does.  Nothing is averaged before the step that
physically averages it, which is what makes the module useful as an oracle
for the closed forms.

Every branch that the protocol fills is one fixed amplitude per channel
times a scattering element at the node, all on the pulse's envelope f.  So
every quadratic figure is a node sum of omega-weighted elements on the
cavity's grid, [G]_f = sum_j omega_j G(k_j), and no function builds an
amplitude array.  The memory cycle (`run_memory_protocol`) is one function
of four node sums of one cavity: N = [1], M = [t_LR], Q = [|t_LR|^2] and
the decay weight D.  Its storage count leaves the atom in a 2 x 2 mixture
whose entries are N, M and Q times the photon's amplitudes, and its
retrieval and herald take every sum over the retrieval nodes from N, M
and Q again.  The two-cavity pair (`entanglement_storage`) fills four
orthogonal channels, one product of a fixed amplitude per photon each, so
every figure it reports is a sum of products of one node sum per cavity,
S = [|t_RR|^2] being the fourth.  The swap from an arbitrary atomic
pre-state (`swap_transfer_fidelity`) projects each photon channel's atomic
amplitudes on the swap image node by node, and sums the two squared
overlaps.  A `Cavity` takes each node sum once, on first use.  Decay
weights are summed node by node from 1 - |t_RR|^2 - |t_LR|^2 in a form
that does not cancel (`Cavity.decay`), never as a difference of norms, so
a small loss keeps its digits; the pair's swap probability is the sum of
its surviving branches.  Sums over the nodes are pairwise sums, not BLAS
dot products: BLAS threads split a long dot product, so its last bits
would move with the thread count.

Every photon that meets a cavity meets a `Cavity`: a pulse's grid with one
node's scattering elements at its nodes, which `Cavity.of` builds, in the
grid's detuning coordinates and from the caller's parameters, and refuses
if it overflows.  Each entry point builds its cavities once.

SystemParams and PulseSpec check themselves when they are built; the qubit
amplitudes (for normalization) and the detector efficiency (in (0, 1]) are
checked where they enter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidField, NonFiniteIntegrand, ZeroProbability
from .params import (
    AtomQubit,
    PhotonQubit,
    PulseSpec,
    SystemParams,
    check_efficiency,
    require_normalized,
)
from .scattering import detuned_decay, detuned_elements
from .spectral import DEFAULT_QUAD, KGrid, QuadratureConfig, build_grid

#: Probability mass below which conditioning on an outcome is refused.
TINY_PROB = 1e-300


@dataclass(frozen=True, eq=False)
class Cavity:
    """One atom-cavity node as a pulse's photon meets it: the pulse's grid,
    the `t_elements` (t_LL, t_RR, t_LR, t_RL) at its nodes, and the
    parameters they were evaluated at.  Build it with `Cavity.of`.  Its
    node sums ([1], [t_LR], [|t_LR|^2], [|t_RR|^2] and the decay weight)
    are cached properties, each taken on first use, as pairwise sums.

    The grid is in detuning coordinates, its nodes at k - k_c, and the
    elements are evaluated there (`scattering.detuned_elements`): the
    physics is translation invariant and no output reads an absolute
    wavenumber, while absolute nodes at a large k_c would round the pulse's
    width away."""

    grid: KGrid
    elements: tuple
    params: SystemParams

    @classmethod
    def of(cls, params: SystemParams, pulse: PulseSpec,
           quad: QuadratureConfig = DEFAULT_QUAD) -> "Cavity":
        """The cavity of `params` on the grid of `pulse` under rule `quad`.
        Raises NonFiniteIntegrand where the grid or the elements overflow (a
        rate too large for double precision): an overflow of the grid shows
        in its nodes k, and a NaN in h in t_LL = 1 + 2 sin^2(xi) h."""
        with np.errstate(over="ignore", invalid="ignore"):
            grid = build_grid(pulse, quad)
            elements = detuned_elements(grid.k, params)
        if not (np.isfinite(grid.k).all() and np.isfinite(elements[0]).all()):
            raise NonFiniteIntegrand("the simulated cycle overflows at this "
                                     "parameter point")
        return cls(grid=grid, elements=elements, params=params)

    @property
    def lossless(self) -> bool:
        """Whether the atom never decays (gamma = 0)."""
        return self.params.gamma == 0.0

    @cached_property
    def norm(self) -> float:
        """[1]_f, the sum of the intensity weights."""
        return float(self.grid.omega.sum())

    @cached_property
    def mean(self) -> complex:
        """[t_LR]_f."""
        return complex((self.grid.omega * self.elements[2]).sum())

    @cached_property
    def converted(self) -> float:
        """[|t_LR|^2]_f: the share of a k_R photon that an atom in |R>
        converts to k_L (and, since |t_RL| = |t_LR|, of a k_L photon that an
        atom in |L> converts to k_R)."""
        t_lr = self.elements[2]
        return float((self.grid.omega * t_lr * t_lr.conj()).real.sum())

    @cached_property
    def kept(self) -> float:
        """[|t_RR|^2]_f: the share of a k_R photon that an atom in |R>
        returns on k_R."""
        t_rr = self.elements[1]
        return float((self.grid.omega * t_rr * t_rr.conj()).real.sum())

    @cached_property
    def decay(self) -> float:
        """[1 - |t_RR|^2 - |t_LR|^2]_f: the share of a k_R photon that an
        atom in |R> sheds into spontaneous emission, summed node by node
        from `scattering.detuned_decay`, which does not cancel; exactly 0.0
        when the atom is lossless.  Only the memory cycle reads it, on
        first use."""
        if self.lossless:
            return 0.0
        with np.errstate(over="ignore"):
            weight = detuned_decay(self.grid.k, self.params)
        return float((self.grid.omega * weight).sum())


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
                        detector: float = 1.0,
                        readout: str = "projective") -> MemoryRecord:
    """Simulate the full cycle: store a polarization qubit, retrieve it.

    Storage: the photon c_L |k_L> + c_R |k_R> on the pulse's envelope f
    meets the atom, prepared in |R>.  Its |R, k_L> part is dark and passes
    as c_L f; its |R, k_R> part is bright and leaves as t_LR c_R f on
    |L, k_L> (counted) and t_RR c_R f on |R, k_R> (never counted),
    shedding |c_R|^2 D into spontaneous emission.  The k_L count does not
    resolve k and scales the two counted branches by its Kraus factor
    sqrt(eta), so it leaves the atom in a node-indexed mixture whose
    unnormalized 2 x 2 density matrix (levels |L>, |R>) is
    g = eta [[|c_R|^2 Q, c_R conj(c_L) M], [conj(c_R) c_L conj(M),
    |c_L|^2 N]], with N = [1], M = [t_LR], Q = [|t_LR|^2] and D = [1 -
    |t_RR|^2 - |t_LR|^2] the cavity's `norm`, `mean`, `converted` and
    `decay`; P(k_L) = g_LL + g_RR.

    Retrieval: a k_R photon on the same envelope meets each stored branch.
    Finding the atom in |L> releases the branch's |R> amplitude times
    t_LR f on k_L and its |L> amplitude times f on k_R, so every sum over
    the retrieval nodes is one of N, M and Q again: the retrieved mass is
    g_RR Q + g_LL N, and P(L) is that over P(k_L).  Against the input
    photon on that envelope a branch overlaps by v_L beta_L + v_R beta_R,
    with v_L = conj(c_R) N and v_R = conj(c_L) M; the unresolved storage
    node makes the branches incoherent, so the fidelity is v g v^H over the
    mass.  The retrieval's |R> branch sheds g_RR D / P(k_L), and
    loss_weight adds it to the storage's |c_R|^2 D.

    readout="projective" ends with an ideal projective measurement of the
    atom.  readout="third_photon" heralds the same outcome with a k_L probe
    photon instead: only the |L> atom converts it to k_R (|t_RL| = |t_LR|),
    so the click has P_readout = eta Q, every retained branch acquires the
    identical spectral factor, and the released state and its fidelity are
    unchanged; only P_total picks up the factor.

    Raises InvalidField for an unknown readout, unless 0 < detector <= 1,
    and unless the photon is normalized; NonFiniteIntegrand where the
    cavity overflows (see `Cavity.of`); ZeroProbability when the k_L count
    or the retrieval measurement has no support.
    """
    if readout not in ("projective", "third_photon"):
        raise InvalidField(readout, "unknown readout mode")
    eta = check_efficiency(detector)
    # Storage, retrieval and probe photons share the pulse, so one cavity
    # serves the whole cycle.
    cav = Cavity.of(params, pulse, quad)
    require_normalized(photon)
    c_l, c_r = photon.c_L, photon.c_R
    norm, mean, converted = cav.norm, cav.mean, cav.converted
    # Storage count: the two counted branches' weights on |L> and |R>, and
    # their coherence.
    g_ll = eta * abs(c_r) ** 2 * converted
    g_rr = eta * abs(c_l) ** 2 * norm
    g_lr = eta * c_r * c_l.conjugate() * mean
    p_k_l = float(g_ll + g_rr)
    if p_k_l < TINY_PROB:
        raise ZeroProbability("k_L photon detection")
    # Retrieval measurement: the atom found in |L> and the released
    # photon's overlap with the input, summed over the storage branches.
    mass = g_rr * converted + g_ll * norm
    if mass < TINY_PROB:
        raise ZeroProbability("atom found in the retrieval level")
    v_l = c_r.conjugate() * norm
    v_r = c_l.conjugate() * mean
    overlap_sq = (abs(v_l) ** 2 * g_ll + abs(v_r) ** 2 * g_rr
                  + 2.0 * (v_l * v_r.conjugate() * g_lr).real)
    decay = cav.decay
    p_l = mass / p_k_l
    p_qm = p_k_l * p_l
    # Herald: the probe's k_R click on the released atom.
    p_readout = eta * converted if readout == "third_photon" else None
    return MemoryRecord(
        p_k_l=p_k_l, p_l=p_l, p_qm=p_qm, fidelity=overlap_sq / mass,
        loss_weight=abs(c_r) ** 2 * decay + g_rr * decay / p_k_l,
        readout=readout, p_readout=p_readout,
        p_total=p_qm if p_readout is None else p_qm * p_readout)


def swap_transfer_fidelity(atom: AtomQubit, photon: PhotonQubit,
                           params: SystemParams, pulse: PulseSpec,
                           quad: QuadratureConfig = DEFAULT_QUAD) -> float:
    """One-shot swap fidelity from the scattered state.

    Scatters the photon off an arbitrary atomic pre-state, traces out the
    photon without any detection, and projects the atomic density matrix on
    the ideal swap image psi = c_R e^{i theta_R} |L> - c_L e^{i theta_L} |R>
    of the photonic qubit.  The bright channels |L, k_L> and |R, k_R> mix
    through the elements, and |L, k_R> and |R, k_L> pass untouched, so at
    node j the photon channels k_L and k_R carry the overlaps

        o_L = conj(psi_R) a_R c_L + conj(psi_L) (a_L c_L t_LL + a_R c_R t_LR),
        o_R = conj(psi_L) a_L c_R + conj(psi_R) (a_L c_L t_RL + a_R c_R t_RR),

    and F = [|o_L|^2 + |o_R|^2]_f.  Decay mass counts as failure, matching
    the closed form in `metrics.transfer_fidelity`.  Raises
    NonFiniteIntegrand where the cavity overflows, and InvalidField unless
    both qubits are normalized.
    """
    cav = Cavity.of(params, pulse, quad)
    require_normalized(atom)
    require_normalized(photon)
    t_ll, t_rr, t_lr, t_rl = cav.elements
    bar_l = (photon.c_R * np.exp(1j * params.theta_R)).conjugate()
    bar_r = (-photon.c_L * np.exp(1j * params.theta_L)).conjugate()
    a_l, a_r, c_l, c_r = atom.a_L, atom.a_R, photon.c_L, photon.c_R
    o_l = (bar_r * a_r * c_l + (bar_l * a_l * c_l) * t_ll
           + (bar_l * a_r * c_r) * t_lr)
    o_r = (bar_l * a_l * c_r + (bar_r * a_l * c_l) * t_rl
           + (bar_r * a_r * c_r) * t_rr)
    return float((cav.grid.omega * ((o_l * o_l.conj()).real
                                    + (o_r * o_r.conj()).real)).sum())


@dataclass(frozen=True)
class PhotonPair:
    """Two-photon polarization state c_LR |k_L, k'_R> + c_RL |k_R, k'_L>."""

    c_LR: complex
    c_RL: complex

    @property
    def norm_sq(self) -> float:
        return abs(self.c_LR) ** 2 + abs(self.c_RL) ** 2


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
                         detector_1: float = 1.0,
                         detector_2: float = 1.0,
                         mode: str = "postselect") -> EntanglementOutcome:
    """Store one photon of an entangled pair in each of two cavities.

    mode="postselect": both scattered photons are counted in their k_L
    channels, with efficiencies detector_1 and detector_2, and the fidelity
    is the heralded overlap with the swap image, the wavenumber-diagonal
    branches added coherently under the detection measure.  For identical
    cavities this reproduces the single-qubit memory fidelity for every
    input pair.

    mode="swap": no photon detection at all; the photons are traced out and
    the two-atom density matrix is projected on the swap image, decay and
    transparent passes counting as failure (probability reports the
    surviving trace).

    Both atoms start in |R>.  Photon 1 of the c_LR term and photon 2 of the
    c_RL term arrive on k_L and pass their dark atoms untouched; the other
    photon leaves its cavity as t_RR f on |R, k_R> or as t_LR f on |L, k_L>.
    So after both passes the pair fills four orthogonal channels, and every
    figure is a sum of products of one node sum per cavity: N = [1],
    M = [t_LR], Q = [|t_LR|^2] and S = [|t_RR|^2] (`Cavity.norm`, `mean`,
    `converted` and `kept`).  With a = |c_LR|^2 and b = |c_RL|^2, swap mode
    keeps P = a N_1 Q_2 + a N_1 S_2 + b S_1 N_2 + b Q_1 N_2, the surviving
    branches, and F = a^2 N_1 Q_2 + b^2 Q_1 N_2 + 2ab Re(conj(M_1) M_2).
    Postselect mode heralds H = a N_1 Q_2 + b Q_1 N_2, the two branches with
    both photons on k_L, with P = eta_1 eta_2 H, and its overlap with the
    image on the detected envelopes is a N_1 M_2 + b M_1 N_2; the Kraus
    factors scale the overlap, H and the image's norm N_1 N_2 alike, so eta
    cancels from F = |overlap|^2 / (N_1 N_2 H).

    Identical nodes (equal params and equal pulses) share one `Cavity`, and
    so one set of sums.  Both modes raise InvalidField unless both
    efficiencies lie in (0, 1] and the pair is normalized,
    NonFiniteIntegrand where a cavity overflows, and postselect mode
    ZeroProbability where the heralding has no support.
    """
    if mode not in ("postselect", "swap"):
        raise InvalidField(mode, "unknown storage mode")
    eta = check_efficiency(detector_1) * check_efficiency(detector_2)
    cav_1 = Cavity.of(params_1, pulse_1, quad)
    # identical nodes meet their photons alike: one cavity, and one set of
    # node sums, serves both
    cav_2 = (cav_1 if (params_2, pulse_2) == (params_1, pulse_1)
             else Cavity.of(params_2, pulse_2, quad))
    require_normalized(pair)
    a, b = abs(pair.c_LR) ** 2, abs(pair.c_RL) ** 2
    n_1, n_2 = cav_1.norm, cav_2.norm
    m_1, m_2 = cav_1.mean, cav_2.mean
    q_1, q_2 = cav_1.converted, cav_2.converted
    if mode == "swap":
        s_1, s_2 = cav_1.kept, cav_2.kept
        return EntanglementOutcome(
            probability=(a * n_1 * q_2 + a * n_1 * s_2 + b * s_1 * n_2
                         + b * q_1 * n_2),
            fidelity=(a * a * n_1 * q_2 + b * b * q_1 * n_2
                      + 2.0 * a * b * (m_1.conjugate() * m_2).real),
            mode=mode)
    heralded = a * n_1 * q_2 + b * q_1 * n_2
    prob = eta * heralded
    if prob < TINY_PROB:
        raise ZeroProbability("two-photon k_L detection")
    overlap = a * n_1 * m_2 + b * m_1 * n_2
    fidelity = abs(overlap) ** 2 / (n_1 * n_2 * heralded)
    return EntanglementOutcome(probability=prob, fidelity=fidelity, mode=mode)
