"""Long-way references for the state oracle: amplitudes on the nodes.

`cavqmem.statesim` reduces every figure to node sums of omega-weighted
scattering elements.  The references here keep the amplitude picture
instead: the pulse envelope f and the plain dk weights w = omega/|f|^2 at a
rule's nodes, so that a single-photon state has norm sum_j w_j |f_j|^2 = 1;
atom-photon amplitudes amps[..., a, p, j] of atom level a (0 = |L>,
1 = |R>) and photon polarization p (0 = k_L, 1 = k_R) at node j; and the
single-node scattering map on them.  Each reference propagates the
amplitudes step by step and sums quadratic forms against w, so it shares
only the elements at the nodes with the package's node sums.  Test-only.
"""

import math

import numpy as np

from cavqmem.params import AtomQubit, PhotonQubit, Profile
from cavqmem.spectral import DEFAULT_QUAD, quadrature_rule
from cavqmem.statesim import Cavity, MemoryRecord

ATOM_L, ATOM_R = 0, 1
POL_L, POL_R = 0, 1


def profile_amplitude(k, pulse, k_c=0.0):
    """Spectral amplitude f(k), unit-normalized: integral |f|^2 dk = 1.

    The pulse position x_0 would multiply f by e^{i(k - k_p) x_0}.  Every
    sum pairs f(k_j) with conj f(k_j) at the same node, so no output reads
    that phase, and f leaves it out."""
    d = np.asarray(k, dtype=float) - (k_c + pulse.delta_p)
    kp = pulse.kappa_p
    if pulse.profile is Profile.GAUSSIAN:
        out = (np.exp(-(d * d) / (2.0 * kp * kp))
               / math.sqrt(math.sqrt(math.pi) * kp))
    else:
        out = math.sqrt(kp / math.pi) / (d + 1j * kp)
    return out if out.ndim else complex(out)


def envelope(pulse, quad=DEFAULT_QUAD):
    """(f, w) at the nodes of `build_grid(pulse, quad)`: the unit-width pulse
    f1 at the rule's nodes x, scaled to f = f1/sqrt(kappa_p), and the plain
    weights w = kappa_p omega/|f1|^2 = omega/|f|^2.  f is taken at x, not at
    k, so no k - k_p cancellation enters."""
    x, omega = quadrature_rule(pulse.profile, quad)
    if pulse.profile is Profile.GAUSSIAN:
        f1 = np.exp(-0.5 * x * x) / math.pi ** 0.25
    else:
        f1 = (1.0 / math.sqrt(math.pi)) / (x + 1j)
    kappa_p = pulse.kappa_p
    return f1 / math.sqrt(kappa_p), kappa_p * (omega / np.abs(f1) ** 2)


def prepare(atom, photon, f):
    """Product state (atomic qubit) x (polarization qubit on envelope f)."""
    amps = np.zeros((2, 2, f.size), dtype=complex)
    for a, qa in ((ATOM_L, atom.a_L), (ATOM_R, atom.a_R)):
        amps[a, POL_L] = qa * photon.c_L * f
        amps[a, POL_R] = qa * photon.c_R * f
    return amps


def scatter(amps, elements):
    """The single-node scattering map on amps[..., a, p, j], given the
    `t_elements` (t_LL, t_RR, t_LR, t_RL) at the nodes j: the bright
    channels |L, k_L> and |R, k_R> mix through the 2x2 block of elements;
    |L, k_R> and |R, k_L> pass through untouched."""
    t_ll, t_rr, t_lr, t_rl = elements
    bright_l = amps[..., ATOM_L, POL_L, :]
    bright_r = amps[..., ATOM_R, POL_R, :]
    out = amps.copy()
    out[..., ATOM_L, POL_L, :] = t_ll * bright_l + t_lr * bright_r
    out[..., ATOM_R, POL_R, :] = t_rl * bright_l + t_rr * bright_r
    return out


def norm(amps, w):
    return float(np.real(np.einsum("apj,apj,j->", amps, np.conjugate(amps),
                                   w)))


def pass_through(amps, cav, w):
    """One pass through the cavity: the scattered amplitudes and the norm
    shed into spontaneous decay, a difference of norms, exactly 0.0 when the
    atom is lossless."""
    out = scatter(amps, cav.elements)
    return out, 0.0 if cav.lossless else norm(amps, w) - norm(out, w)


def atom_density(amps, w):
    """Reduced atomic density matrix, photon traced out.  Not normalized:
    its trace is the surviving probability mass."""
    return np.einsum("apj,bpj,j->ab", amps, np.conjugate(amps), w)


def swap_transfer_fidelity(atom, photon, params, pulse, quad=DEFAULT_QUAD):
    """Reference for `statesim.swap_transfer_fidelity`: the (2, 2, n)
    product state scattered once, the photon traced out, and the atomic
    density matrix projected on the swap image of the photon."""
    cav = Cavity.of(params, pulse, quad)
    f, w = envelope(pulse, quad)
    rho = atom_density(scatter(prepare(atom, photon, f), cav.elements), w)
    psi = np.array([photon.c_R * np.exp(1j * params.theta_R),
                    -photon.c_L * np.exp(1j * params.theta_L)])
    return float(np.real(np.conjugate(psi) @ rho @ psi))


def stepwise_cycle(params, pulse, quad, photon, eta, readout):
    """Reference for `run_memory_protocol`: the cycle step by step on the
    full state.  The (2, 2, n) input is scattered by `pass_through`, whose
    decay weight is a difference of norms, the k_L count keeps both atomic
    levels, retrieval builds the node arrays of both polarization
    channels, and the third-photon herald scatters a k_L probe off the
    released |L> atom and counts its |R, k_R> channel."""
    cav = Cavity.of(params, pulse, quad)
    f, w = envelope(pulse, quad)
    start = AtomQubit(0.0, 1.0)
    state, loss = pass_through(prepare(start, photon, f), cav, w)
    beta = math.sqrt(eta) * state[:, POL_L, :]
    p_k_l = float(np.real(np.einsum("aj,aj,j->", beta, np.conjugate(beta),
                                    w)))
    _, t_rr, t_lr, _ = cav.elements
    storage_amps = beta[[ATOM_R, ATOM_L]]
    release_amps = np.stack([t_lr * f, f])
    stored_mass = np.abs(storage_amps) ** 2 @ w
    mass = float(stored_mass @ (np.abs(release_amps) ** 2 @ w))
    target_amps = np.array([[photon.c_L], [photon.c_R]]) * f
    ovl = ((release_amps * np.conjugate(target_amps)) @ w) @ storage_amps
    fidelity = float(np.real(np.sum(w * np.abs(ovl) ** 2)) / mass)
    survive = float(np.real(np.sum(
        w * np.abs(f) ** 2 * (np.abs(t_rr) ** 2 + np.abs(t_lr) ** 2))))
    decay = 0.0 if cav.lossless else float(stored_mass[0] * (1.0 - survive))
    p_l = mass / p_k_l
    p_qm = p_k_l * p_l
    p_readout = None
    if readout == "third_photon":
        probe = scatter(prepare(AtomQubit(1.0, 0.0), PhotonQubit(1.0, 0.0),
                                f), cav.elements)
        click = probe[ATOM_R, POL_R]
        p_readout = eta * float(np.real(np.sum(w * np.abs(click) ** 2)))
    return MemoryRecord(
        p_k_l=p_k_l, p_l=p_l, p_qm=p_qm, fidelity=fidelity,
        loss_weight=loss + decay / p_k_l, readout=readout,
        p_readout=p_readout,
        p_total=p_qm if p_readout is None else p_qm * p_readout)


# Stacked pair: the two-cavity state kept as rank-2 factor stacks, one per
# grid, left[r, a, p, j] for atom 1 and photon 1 and right[r, b, q, j'] for
# atom 2 and photon 2, whose amplitude is sum_r left[r] x right[r]; each
# cavity scatters its own stack, and every figure is a contraction of the
# two sides' Gram matrices.

def prepare_pair(pair, f_1, f_2):
    """Both atoms in |R>, the pair on the two envelopes: one rank term per
    pair amplitude."""
    left = np.zeros((2, 2, 2, f_1.size), dtype=complex)
    right = np.zeros((2, 2, 2, f_2.size), dtype=complex)
    left[0, ATOM_R, POL_L] = pair.c_LR * f_1
    right[0, ATOM_R, POL_R] = f_2
    left[1, ATOM_R, POL_R] = pair.c_RL * f_1
    right[1, ATOM_R, POL_L] = f_2
    return left, right


def scatter_pair(stacks, cav_1, cav_2):
    left, right = stacks
    return scatter(left, cav_1.elements), scatter(right, cav_2.elements)


def gram(stack, w):
    """g[(r, a), (s, c)] = sum_{p, j} w_j stack[r, a, p, j]
    conj(stack[s, c, p, j]): one product (X w) X^H of the (r a, p n)
    reshape X."""
    rows = stack.shape[0] * stack.shape[1]
    return ((stack * w).reshape(rows, -1)
            @ np.conjugate(stack).reshape(rows, -1).T)


def pair_density(left, right, w_1, w_2):
    """rho[a, b, c, d] of sum_r left[r] x right[r], the photon channels and
    nodes traced against w_1 and w_2: sum_{r, s} g_1[r, a, s, c]
    g_2[r, b, s, d], one (4, r^2) by (r^2, 4) product."""
    r, atoms = left.shape[:2]
    g_1 = gram(left, w_1).reshape(r, atoms, r, atoms).transpose(1, 3, 0, 2)
    g_2 = gram(right, w_2).reshape(r, atoms, r, atoms).transpose(0, 2, 1, 3)
    rho = (g_1.reshape(atoms * atoms, r * r)
           @ g_2.reshape(r * r, atoms * atoms))       # [(a, c), (b, d)]
    return rho.reshape((atoms,) * 4).transpose(0, 2, 1, 3)


def pair_norm(left, right, w_1, w_2):
    return float(pair_density(left, right, w_1, w_2).reshape(4, 4)
                 .trace().real)


def stacked_entanglement_storage(pair, params_1, params_2, pulse_1, pulse_2,
                                 quad, detector_1, detector_2, mode):
    """Returns (probability, fidelity) of `entanglement_storage`, by the
    stacked path on two separately built cavities."""
    cav_1 = Cavity.of(params_1, pulse_1, quad)
    cav_2 = Cavity.of(params_2, pulse_2, quad)
    (f_1, w_1), (f_2, w_2) = envelope(pulse_1, quad), envelope(pulse_2, quad)
    left, right = scatter_pair(prepare_pair(pair, f_1, f_2), cav_1, cav_2)
    target = np.zeros(4, dtype=complex)
    target[2 * ATOM_R + ATOM_L] = pair.c_LR
    target[2 * ATOM_L + ATOM_R] = pair.c_RL
    if mode == "swap":
        rho = pair_density(left, right, w_1, w_2).reshape(4, 4)
        return (float(rho.trace().real),
                float(np.vdot(target, rho @ target).real))
    # both photons counted in k_L; the Kraus factors scale the overlap, the
    # heralded norm and the image's norm alike, so eta cancels from the
    # fidelity
    sel_1, sel_2 = left[:, :, POL_L], right[:, :, POL_L]
    heralded = pair_norm(sel_1[:, :, None], sel_2[:, :, None], w_1, w_2)
    ovl_1 = sel_1 @ (w_1 * np.conjugate(f_1))
    ovl_2 = sel_2 @ (w_2 * np.conjugate(f_2))
    overlap = np.vdot(target, (ovl_1.T @ ovl_2).ravel())
    weight = float(cav_1.grid.omega.sum()) * float(cav_2.grid.omega.sum())
    return (detector_1 * detector_2 * heralded,
            float(abs(overlap) ** 2 / (weight * heralded)))
