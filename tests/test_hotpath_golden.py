"""Golden bits of the solver and tangent hot paths.

sha256 of the arrays returned by ``simulate``, ``picard_solve``,
``deterministic_convolution``, ``energy_diagnostics`` and
``tangent_propagate``/``malliavin_matrix``, recorded before their loops were
rewritten to update in place.  Compared exactly: a changed digest means a
changed floating-point value.  The noise backends are white, diagonal or a
small dense factor, so no pinned value depends on the BLAS thread count.

The tangent pins of cases with a reaction, a forcing and cutoff weights
below one were re-recorded when the tangent began to assemble its drift
through ``solver._drift``, as K (Laplace R'T + g'T) where it had summed
K Laplace R'T + K g'T; no value moved by more than 8.9e-17 of max |value|.
"""

import hashlib
import math

import numpy as np
import pytest

from spde_ch import malliavin
from spde_ch.basis import DIRICHLET, NEUMANN, Basis
from spde_ch.covariance import CovarianceSpec
from spde_ch.malliavin import malliavin_matrix, tangent_propagate
from spde_ch.noise import make_backend
from spde_ch.solver import (EXPONENTIAL_EULER, SEMI_IMPLICIT, ModelSpec,
                            SolverConfig, Trajectory,
                            deterministic_convolution,
                            energy_diagnostics, picard_solve, simulate)


def _digest(arr):
    arr = np.ascontiguousarray(arr, dtype=float)
    return hashlib.sha256(repr(arr.shape).encode() + arr.tobytes()).hexdigest()


def _state(basis, seed, scale):
    c = np.random.default_rng(seed).standard_normal(basis.shape)
    return scale * c / (1.0 + basis.laplace_eigenvalues)


def _sigma(t, x, u):
    return 0.3 + 0.1 * np.sin(u) + 0.05 * np.cos(x[..., 0] + t)


def _sigma_p(t, x, u):
    return 0.1 * np.cos(u)


def _forcing(t, x, u):
    return 0.2 * np.cos(x[..., -1]) - 0.1 * u


def _forcing_p(t, x, u):
    return np.full(np.shape(u), -0.1)


def _drift(u):
    return 0.05 * u * u


def _drift_p(u):
    return 0.1 * u


def _model(bc, d, sigma, terms=("reaction", "forcing", "drift")):
    r0 = 0.0 if bc == DIRICHLET else 0.1
    return ModelSpec(
        bc=bc, reaction=(1.0, 0.2, -1.0, r0) if "reaction" in terms else None,
        sigma=_sigma if sigma == "callable" else 0.3,
        forcing=_forcing if "forcing" in terms else None,
        drifts=(((2,) + (0,) * (d - 1), _drift),) if "drift" in terms else ())


_JACOBIANS = {"sigma": _sigma_p, "forcing": _forcing_p, "drifts": (_drift_p,)}


def _white(basis, seed):
    return make_backend(CovarianceSpec.white(basis.dim), basis, seed=seed)


# ----------------------------------------------------------------------
# solver


def _simulate_case(bc, scheme, sigma):
    basis = Basis(bc, 2, 6)
    config = SolverConfig(dt=1e-3, t_final=0.03, scheme=scheme,
                          truncation=1.0, q=4.0)
    scale = 3.0 if bc == NEUMANN else 7.0
    traj = simulate(_model(bc, 2, sigma), config, basis,
                    backend=_white(basis, 4), u0=_state(basis, 1, scale),
                    path=3)
    return {"coeffs": traj.coeffs, "norms": traj.norms,
            "weights": traj.weights}


def _diagonal_case(bc):
    basis = Basis(bc, 2, 6)
    backend = make_backend(CovarianceSpec.riesz(2, B=1.0), basis, seed=6,
                           kind="spectral-diagonal")
    config = SolverConfig(dt=2e-3, t_final=0.02, truncation=1.0, store_every=3)
    scale = 2.5 if bc == NEUMANN else 6.0
    traj = simulate(_model(bc, 2, "scalar"), config, basis, backend=backend,
                    u0=_state(basis, 2, scale))
    return {"coeffs": traj.coeffs, "norms": traj.norms,
            "weights": traj.weights}


def _cholesky_case(bc):
    basis = Basis(bc, 1, 12)
    backend = make_backend(CovarianceSpec.riesz(1, B=0.5), basis, seed=2)
    config = SolverConfig(dt=1e-3, t_final=0.02, scheme=SEMI_IMPLICIT)
    traj = simulate(_model(bc, 1, "callable"), config, basis, backend=backend,
                    u0=_state(basis, 3, 1.0), path=1)
    return {"coeffs": traj.coeffs, "norms": traj.norms,
            "weights": traj.weights}


def _picard_case(bc):
    basis = Basis(bc, 2, 5)
    model = ModelSpec(bc=bc, reaction=(0.5, 0.0, -0.2, 0.0), sigma=_sigma,
                      drifts=(((0, 2), _drift),))
    config = SolverConfig(dt=1e-3, t_final=0.01)
    result = picard_solve(model, config, basis, backend=_white(basis, 5),
                          u0=_state(basis, 5, 0.5), path=2, tol=1e-13)
    traj = result.trajectory
    return {"coeffs": traj.coeffs, "norms": traj.norms,
            "weights": traj.weights, "deltas": result.deltas}


def _convolution_case(bc):
    basis = Basis(bc, 2, 6)
    g = basis.grid()
    field = np.cos(g[..., 0]) * np.sin(2 * g[..., 1]) + 0.3
    out = {}
    for name, kernel in (("G", "G"), ("laplacian", "laplacian-G"),
                         ("mixed", (2, 2))):
        out[name + "-const"] = deterministic_convolution(
            basis, field, kernel=kernel, t0=0.1, t=0.6, n_steps=16)
        out[name + "-callable"] = deterministic_convolution(
            basis, lambda s: field * (1.0 + s), kernel=kernel, t=0.5,
            n_steps=12)
    return out


def _energy_case(bc, d, M):
    basis = Basis(bc, d, M)
    coeffs = np.stack([_state(basis, 10 + i, 0.4 * i) for i in range(3)])
    coeffs[(slice(None),) + (0,) * d] += 1.5
    traj = Trajectory(times=np.array([0.0, 0.1, 0.25]), coeffs=coeffs,
                      norms=np.ones(3), weights=np.ones(2))
    r0 = 0.0 if bc == DIRICHLET else 0.2
    model = ModelSpec(bc=bc, reaction=(1.0, 0.3, -1.0, r0))
    return energy_diagnostics(traj, basis, model)


SOLVER_CASES = {}
for _bc in (NEUMANN, DIRICHLET):
    for _scheme in (EXPONENTIAL_EULER, SEMI_IMPLICIT):
        for _sig in ("scalar", "callable"):
            SOLVER_CASES[f"simulate/{_bc}/{_scheme}/{_sig}"] = (
                lambda bc=_bc, s=_scheme, g=_sig: _simulate_case(bc, s, g))
    SOLVER_CASES[f"simulate/{_bc}/diagonal"] = lambda bc=_bc: _diagonal_case(bc)
    SOLVER_CASES[f"simulate/{_bc}/cholesky"] = lambda bc=_bc: _cholesky_case(bc)
    SOLVER_CASES[f"picard/{_bc}"] = lambda bc=_bc: _picard_case(bc)
    SOLVER_CASES[f"convolution/{_bc}"] = lambda bc=_bc: _convolution_case(bc)
SOLVER_CASES["energy/neumann/d2"] = lambda: _energy_case(NEUMANN, 2, 8)
SOLVER_CASES["energy/dirichlet/d2"] = lambda: _energy_case(DIRICHLET, 2, 8)
SOLVER_CASES["energy/neumann/d3"] = lambda: _energy_case(NEUMANN, 3, 8)
SOLVER_CASES["energy/dirichlet/d3"] = lambda: _energy_case(DIRICHLET, 3, 5)


# ----------------------------------------------------------------------
# tangents


def _tangent_case(bc, scheme, sigma, thin=1, slice_bytes=None,
                  terms=("reaction", "forcing", "drift")):
    basis = Basis(bc, 2, 4)
    backend = _white(basis, 7)
    model = _model(bc, 2, sigma, terms)
    config = SolverConfig(dt=1e-3, t_final=0.012, scheme=scheme,
                          truncation=5.0)
    traj = simulate(model, config, basis, backend=backend,
                    u0=_state(basis, 6, 1.0), path=1)
    # cutoff weights below one, which a run that never crosses its level
    # cannot record, so that the K_m factor of the linearization shows
    traj.weights = np.linspace(0.55, 1.0, len(traj.weights))
    saved = malliavin.TANGENT_SLICE_BYTES
    if slice_bytes is not None:
        malliavin.TANGENT_SLICE_BYTES = slice_bytes
    try:
        tang = tangent_propagate(traj, model, config, basis, backend,
                                 thin=thin, jacobians=_JACOBIANS)
    finally:
        malliavin.TANGENT_SLICE_BYTES = saved
    pts = [[math.pi / 2, math.pi / 3], [1.0, 2.0], [2.5, 0.4]]
    return {"derivatives": tang.derivatives, "leads": tang.leads,
            "gamma": malliavin_matrix(tang, pts).gamma}


def _tangent_cholesky_case(bc):
    basis = Basis(bc, 1, 10)
    backend = make_backend(CovarianceSpec.riesz(1, B=0.5), basis, seed=4)
    model = _model(bc, 1, "callable")
    config = SolverConfig(dt=1e-3, t_final=0.015)
    traj = simulate(model, config, basis, backend=backend,
                    u0=_state(basis, 7, 1.0), path=2)
    tang = tangent_propagate(traj, model, config, basis, backend,
                             t0=0.012, jacobians=_JACOBIANS)
    return {"derivatives": tang.derivatives, "leads": tang.leads,
            "gamma": malliavin_matrix(tang, [[0.8], [2.0]]).gamma}


TANGENT_CASES = {}
for _bc in (NEUMANN, DIRICHLET):
    for _scheme in (EXPONENTIAL_EULER, SEMI_IMPLICIT):
        for _sig in ("scalar", "callable"):
            TANGENT_CASES[f"tangent/{_bc}/{_scheme}/{_sig}"] = (
                lambda bc=_bc, s=_scheme, g=_sig: _tangent_case(bc, s, g))
    TANGENT_CASES[f"tangent/{_bc}/thin2-sliced"] = (
        lambda bc=_bc: _tangent_case(bc, EXPONENTIAL_EULER, "callable",
                                     thin=2, slice_bytes=3 * 8 * 64))
    TANGENT_CASES[f"tangent/{_bc}/cholesky"] = (
        lambda bc=_bc: _tangent_cholesky_case(bc))
    for _sig, _terms in (("scalar", ("reaction",)),
                         ("callable", ("forcing", "drift")),
                         ("callable", ())):
        TANGENT_CASES[f"tangent/{_bc}/{'+'.join(_terms) or 'linear'}"] = (
            lambda bc=_bc, g=_sig, terms=_terms: _tangent_case(
                bc, EXPONENTIAL_EULER, g, terms=terms))

CASES = {**SOLVER_CASES, **TANGENT_CASES}


def _golden_values():
    """Every pinned digest, keyed case/output (used to record GOLDEN)."""
    out = {}
    for case, fn in CASES.items():
        for name, arr in fn().items():
            out[f"{case}/{name}"] = _digest(arr)
    return out


GOLDEN = {
    "convolution/dirichlet/G-callable":
        "37ec37b042e28189a6133ebe6ca24da21e6c8ad5e921ff2d3be776f2b42b51bf",
    "convolution/dirichlet/G-const":
        "92c8ff00ecc46815f978e37bd0ca9bdf8478fe8268b9cbc7a9e224b327dbe63e",
    "convolution/dirichlet/laplacian-callable":
        "7b71196160df2dcce0d1dd7ddad6ffc2265af4e96dc410a873a60b4c805c454e",
    "convolution/dirichlet/laplacian-const":
        "592c5838779de48ebc44789e3458496f57a874827abf3963af4f23a4ad325cae",
    "convolution/dirichlet/mixed-callable":
        "18b68ad6619acada689eb627b6a78c0b1da3f2cc27716f78f57048de57fa9d2b",
    "convolution/dirichlet/mixed-const":
        "f0b44598cbd55e80cfe65f41930a74001281bceda53d6c04f039d00c313d5f92",
    "convolution/neumann/G-callable":
        "def7caf1d7cc6f3145ff4aa93d52a9441628b92e54ddfdc7ca252860d19db548",
    "convolution/neumann/G-const":
        "2de70df6196d01b0a912eb3422c732c269ee4ebf4cc173751c922499e85f847b",
    "convolution/neumann/laplacian-callable":
        "8a51d3d45339305b0feb6bfd79079164946a2fd65ea7af00d250d65a2f8bbaea",
    "convolution/neumann/laplacian-const":
        "eeb395338854e6509af4b98881b45b01681368fd7aea09c9cdabedcf3919ed7a",
    "convolution/neumann/mixed-callable":
        "1221f0861cbdd4994dad214619773531d5f2aa22ba73ba631f4984bc5c6ffa8d",
    "convolution/neumann/mixed-const":
        "fb382962653cc955851316766caa79548a66e27ba020da473e1c96a6def83f80",
    "energy/dirichlet/d2/cum_dissipation":
        "796c4445c78a23505568fadbfe760892cbe7ee0a690e5299845be8ac083bd375",
    "energy/dirichlet/d2/free_energy":
        "2f6b00aa44ae8967f1b64c241a6b19aa4272d9a1289286e641145d2bdfdaecef",
    "energy/dirichlet/d2/hminus1_sq":
        "3c950208612e558b892efbda3d3ed8f377b43a9f7be0b33b343c17330259cb9c",
    "energy/dirichlet/d2/l2_sq":
        "7b18220e2b16e038fcf04fada30b7cca82fe55320e501d29065dce51e7fed2ed",
    "energy/dirichlet/d2/times":
        "ab9c575729b163d5e568c721193b2f6701201dc070bad7a6ccd3711ffe87ed6c",
    "energy/dirichlet/d3/cum_dissipation":
        "1e02554821b6792d8f2810d8d35275712ef9dadd022ef846551081a1efcc3875",
    "energy/dirichlet/d3/free_energy":
        "426ab07258296460f9b849ac253f556c842adf219f2c507da80509dcadeafc31",
    "energy/dirichlet/d3/hminus1_sq":
        "5e9f9e2e9627a79d6f6860be74cd0eec488bde615370b1e6bbaeb0615eec362b",
    "energy/dirichlet/d3/l2_sq":
        "78933bef6d3a4f679331c28f258a3cded38fa6296e3ee1c9d7ef1056a2277a29",
    "energy/dirichlet/d3/times":
        "ab9c575729b163d5e568c721193b2f6701201dc070bad7a6ccd3711ffe87ed6c",
    "energy/neumann/d2/cum_dissipation":
        "26a4ac813bdf0b1e5e854006be83b0a1d0279bc226e05853d7d50c63aadeef2c",
    "energy/neumann/d2/free_energy":
        "af75bfbcb3df782856b9b4f45d4e64a367245d9c073580b8257a36ee7c8105fd",
    "energy/neumann/d2/hminus1_sq":
        "c031b439912bd1d96c17a013e98d6899db0aedfa391b3d1b3977f125ba908c79",
    "energy/neumann/d2/l2_sq":
        "a72dda7a27f107bf66cd685cea63064b2e179b92bb9b8942140b5eca9a4051a3",
    "energy/neumann/d2/mean_mode_sq":
        "209aa788512d576b550ecc827c4fdf7e5f53581c8ebd62315c45e90dc2af59da",
    "energy/neumann/d2/times":
        "ab9c575729b163d5e568c721193b2f6701201dc070bad7a6ccd3711ffe87ed6c",
    "energy/neumann/d3/cum_dissipation":
        "cc3d6c42069c6577612ff0cdae74c7b70560c7509425d1242d345d011aa68c63",
    "energy/neumann/d3/free_energy":
        "e55940327c45b292ab25d723ed2e9ac9b58bbd03a2f30dcfbb7f3fd2928b5307",
    "energy/neumann/d3/hminus1_sq":
        "802156d0e81bd7caf3160aee741abe7abe51dd04745711c18c1a47b1469deb85",
    "energy/neumann/d3/l2_sq":
        "5c029d685631c6a09c233c481c9eea2d1dca65fb04c18e13988921ec2e05c16c",
    "energy/neumann/d3/mean_mode_sq":
        "209aa788512d576b550ecc827c4fdf7e5f53581c8ebd62315c45e90dc2af59da",
    "energy/neumann/d3/times":
        "ab9c575729b163d5e568c721193b2f6701201dc070bad7a6ccd3711ffe87ed6c",
    "picard/dirichlet/coeffs":
        "53283495161283d03a6bae011061639a58294f61585545e6a3984b72ed9e7eff",
    "picard/dirichlet/deltas":
        "944e5ac68d92ba807c814590e53cf50d18d11b5cd646e038cd42fb2b2092a715",
    "picard/dirichlet/norms":
        "b07032e3c9a531ca45d45e33469849f2c5baf597df597a383d2ec1ba3fcc3b13",
    "picard/dirichlet/weights":
        "d6c5c7087f1b3514bca0874daa8a188ce546569cbba1c83cd61eaea8f638aa87",
    "picard/neumann/coeffs":
        "0997c6a14f18621ebf372568de62328e72a48b279dca34712965b54cc366cb8b",
    "picard/neumann/deltas":
        "c8b271618ed98c04e916914dd0ff06d31b648c65f2d0bc940034c8be7ee70c9f",
    "picard/neumann/norms":
        "7707ac0d338b08614b15afd62587214a421c21f1330a003f63afd23293df4b5e",
    "picard/neumann/weights":
        "d6c5c7087f1b3514bca0874daa8a188ce546569cbba1c83cd61eaea8f638aa87",
    "simulate/dirichlet/cholesky/coeffs":
        "17343e2c4278797f0233c7865b24e12cd0f6936521a71878c9321403588b86be",
    "simulate/dirichlet/cholesky/norms":
        "221d543781b9644373b361761b651293ee98eed00d673357eb06edc58116eb99",
    "simulate/dirichlet/cholesky/weights":
        "ed6813c0987d053666633e5d8c1b075096505b28310f08ea18108859a27fadb0",
    "simulate/dirichlet/diagonal/coeffs":
        "3d33691e550aa8e398a8d1fd38c93a404d6704af8a21b38a87eabe129150460b",
    "simulate/dirichlet/diagonal/norms":
        "1af1c80f71a270dbadb7a4607e954759b062c330ba0c1bb011d171421c403c46",
    "simulate/dirichlet/diagonal/weights":
        "b9a5c974eb38ddcee9846d14161eb3a8ec78b789eaf34556605d7f78c4e6ed5b",
    "simulate/dirichlet/exponential-euler/callable/coeffs":
        "a952493729cee5fe22942312063235edefad830499e9f4ac6db75cce16b41ea4",
    "simulate/dirichlet/exponential-euler/callable/norms":
        "639819f91f41f295bdf15bdeb29e9c550b58935b0352701fe3296f9b27b83bfc",
    "simulate/dirichlet/exponential-euler/callable/weights":
        "5b11396a640feff173eef15b2e92fe121ed9cccfdac33f236621973ae7194ebb",
    "simulate/dirichlet/exponential-euler/scalar/coeffs":
        "f2995be92ed45d30ccd9d53cd6470e963e60f00eda4f98c09d57ce34417fabb8",
    "simulate/dirichlet/exponential-euler/scalar/norms":
        "f8c7bd941abd6d68e7ef4d5095fcfecc3cbffb6603d0e5c27587800dc7cbecc8",
    "simulate/dirichlet/exponential-euler/scalar/weights":
        "39224e70d517af27df3bd5ca01d77150cc7677af5133f2e5b0b27d162451c05e",
    "simulate/dirichlet/semi-implicit/callable/coeffs":
        "377715bb01a5a99d9396f202e14498e155a658dc295f06e4c59a3787cf473cc5",
    "simulate/dirichlet/semi-implicit/callable/norms":
        "9e41ed23de793a8946cc1d35d1ace3b4f2055f9d523ffca3fd7897778fbf7df1",
    "simulate/dirichlet/semi-implicit/callable/weights":
        "bbd5ca4f0dc312cb417baff0ecf5cafcd2c5c64be280bcd955b14ebbacbef395",
    "simulate/dirichlet/semi-implicit/scalar/coeffs":
        "9ff23581ed01efc8ce1c41cff3b29dbe8717b4fabd428f4c6b203137b2bc9046",
    "simulate/dirichlet/semi-implicit/scalar/norms":
        "fb8c4be62979ca86a99081562ce5ea571fa37dfe4681bf587c7e341c83935e9a",
    "simulate/dirichlet/semi-implicit/scalar/weights":
        "cbbd825d2b4cf751e7c7ea210c24196ad1695276c3f6da36cc04256964d21439",
    "simulate/neumann/cholesky/coeffs":
        "7d56daa309c3a0109f35d72b62775e8bf53e89ad6b2ae27b4e3e8d87af0754f2",
    "simulate/neumann/cholesky/norms":
        "cc4e65899b9064b73fe6eecae4aa8735bde2f02adcbcaaec4b8703a425a571de",
    "simulate/neumann/cholesky/weights":
        "ed6813c0987d053666633e5d8c1b075096505b28310f08ea18108859a27fadb0",
    "simulate/neumann/diagonal/coeffs":
        "d717381edb6593d6f86fe87d75ae0d4198b5600b3c58542322a6a16989ef8a38",
    "simulate/neumann/diagonal/norms":
        "f4903e2a757916732a6c6551ea780a20059c58c140472ec28981a0028babebcb",
    "simulate/neumann/diagonal/weights":
        "c9ef32cc847c715e4758b49c4bf4bed5fad793cd3df531d5f0e298d43d19b2e1",
    "simulate/neumann/exponential-euler/callable/coeffs":
        "1e340160b529b7e3b27661ec8d0596b218d846b861e2f5487c022935a36b88af",
    "simulate/neumann/exponential-euler/callable/norms":
        "b7303d495f35a3651ba8c13486bd27b94292fbbb2faee05161af2fda58265dc9",
    "simulate/neumann/exponential-euler/callable/weights":
        "6fdebbb3f65e53e9d232c6cef688877be89becf116047d42ab6cb068949e8ae7",
    "simulate/neumann/exponential-euler/scalar/coeffs":
        "f28f37455d3ea63ce1f20960c76f7f807f1a4dbe3e2087aa64d4ddc6c64d91fa",
    "simulate/neumann/exponential-euler/scalar/norms":
        "f1afa80454e910ad001f65003cced35aeea58822b3ee4203181438d58b4bff03",
    "simulate/neumann/exponential-euler/scalar/weights":
        "07c27ad448b2ca4dfbc9ed3b00316076d5795982a9a278e8838368d987ab636c",
    "simulate/neumann/semi-implicit/callable/coeffs":
        "cd93423ba9a06f9a7008aaac6ae88be0ff30b85ca498757737fd90d31efe7f6d",
    "simulate/neumann/semi-implicit/callable/norms":
        "8c65cce807a69a2fadba25ce7d50e1732cec0e9bdbe5b83a22002b83a732039a",
    "simulate/neumann/semi-implicit/callable/weights":
        "98b6f2c6ecc0e6c3ef0f68b0e98198fe438ddf4ce998c6665bc46c447e4c607a",
    "simulate/neumann/semi-implicit/scalar/coeffs":
        "0903daed6b294fc6e47237a3eabfb509e202fb4a7f3bd02ad596fe8284ef466f",
    "simulate/neumann/semi-implicit/scalar/norms":
        "44ba8f22308f521c7b83c0fdb05145a34c389b861f1a8123b32162a4bf8235c8",
    "simulate/neumann/semi-implicit/scalar/weights":
        "2ff61a3addea992f29cff70203820cf70f8f7f6a334f1c6466872b3eae2415d4",
    "tangent/dirichlet/cholesky/derivatives":
        "347529b2672b472901e2093736f1651c0f36aefa9c97eaa088ec992ba9d11382",
    "tangent/dirichlet/cholesky/gamma":
        "c0cb67aa926febfafc3bf626114930161ffea9a7a50c2cd7f3d72b2e4767b273",
    "tangent/dirichlet/cholesky/leads":
        "0e6347fd2fbf4ded7da69c017ee923056ee8e09f26b68e705c675ac8d3c46f38",
    "tangent/dirichlet/exponential-euler/callable/derivatives":
        "817a30edebde49b7c2acf4fbac4f96bf6dfe0820a50185ef910865faef1776b2",
    "tangent/dirichlet/exponential-euler/callable/gamma":
        "14c19634210bec474e187fbf956d35ec4dd1903f61b7f5996c13a4c46c94ac99",
    "tangent/dirichlet/exponential-euler/callable/leads":
        "f0017dadfdfe731f4fa3528488a765b2de04a808031ef6c8b16907d656731c59",
    "tangent/dirichlet/exponential-euler/scalar/derivatives":
        "d698e57139296521052f2b991ea1851c061613ba6098b45671dae590364292b4",
    "tangent/dirichlet/exponential-euler/scalar/gamma":
        "b8e0a4cf97328ac4b7cfa075920a4a188926c2610e2d46685871c59913666d37",
    "tangent/dirichlet/exponential-euler/scalar/leads":
        "34f7610555f6bc84e7d19023f705560c36c9d5079b79dd876158b37ec4fee61f",
    "tangent/dirichlet/forcing+drift/derivatives":
        "b56c6ef0d6506b6d76bfb5faffd76d629db6f2fe9c8b53667b4cd04c8a2ecf54",
    "tangent/dirichlet/forcing+drift/gamma":
        "45f889b3612a143efda1d7c3edc5bb388d54fc3c13fa1ad7f6645c3d9641f389",
    "tangent/dirichlet/forcing+drift/leads":
        "979fc810571e8e2dc2e3fbeb53094956684f91fb81b6aac234b84d01604ef86e",
    "tangent/dirichlet/linear/derivatives":
        "4da3d8d1d97111036d8a6c6c330b36e7699e3933398db2cca13643f59b23430e",
    "tangent/dirichlet/linear/gamma":
        "4485870f91e393f25bbbfb5fa7a490faab59225e25f34976a0e0db2c7290202f",
    "tangent/dirichlet/linear/leads":
        "9c3ea057095bbdbc602ad74e3bb9a56b4bd43795892ebad4c45cfa9b5eb4e722",
    "tangent/dirichlet/reaction/derivatives":
        "5987fca62db8d16ec1e07fd00603a51d53abdc2b6ab082a79d13ae85cc88c1cd",
    "tangent/dirichlet/reaction/gamma":
        "2d50eed48f02b6518254050a5bad1a1e199039c5106caa8c7f2c8a7c695a09d4",
    "tangent/dirichlet/reaction/leads":
        "34f7610555f6bc84e7d19023f705560c36c9d5079b79dd876158b37ec4fee61f",
    "tangent/dirichlet/semi-implicit/callable/derivatives":
        "f658b597fe6781b0f9742ca35289892258005665f5260dbf1d509cf657f0638f",
    "tangent/dirichlet/semi-implicit/callable/gamma":
        "8ec565e15b04a80f88859bb20e8392b06003e733d549d643f175d76a72da7691",
    "tangent/dirichlet/semi-implicit/callable/leads":
        "43083faa4067c671e0bb9e736d650b9fc143c76c6220419ecd2952e18c4e9a75",
    "tangent/dirichlet/semi-implicit/scalar/derivatives":
        "55b195b920525bd329bb4190092028e7323ba21e4f8c99c1fd6efcb020664940",
    "tangent/dirichlet/semi-implicit/scalar/gamma":
        "3b2959d63b7628d66bb48e6e66d9d1d4621670dcd6200e19ab9f38438360ec4c",
    "tangent/dirichlet/semi-implicit/scalar/leads":
        "0f8120159d7cdde02965a6937a0d22d5b6ba483e0ecdafa284e7f7fafcfec014",
    "tangent/dirichlet/thin2-sliced/derivatives":
        "674dd114807a537c861c097901637e0384672e3c5b36295fdbc5607cbbcb0b8d",
    "tangent/dirichlet/thin2-sliced/gamma":
        "8aafc1668a695477ab05ed64606095995a95fba8aa782526db920acdc680cf1e",
    "tangent/dirichlet/thin2-sliced/leads":
        "ffb34244fbc14d08efcc81499de6b6060630fd70e1b5795a67142d5687b2654f",
    "tangent/neumann/cholesky/derivatives":
        "8f2b04055e1ab16c619dc419b285b87bde9e5b76f619ab412294d68be3ab6ff3",
    "tangent/neumann/cholesky/gamma":
        "da41ebd66d0c050df1c0b2eed5312b84ac80c249d0db52750b85092c26caa97f",
    "tangent/neumann/cholesky/leads":
        "26e1fd07e6a8a6815eb407c32fbed28ad850a0a70c0ad9f4e180a6a2df8e2e4a",
    "tangent/neumann/exponential-euler/callable/derivatives":
        "b79337aff1d53d601a980b517f056c336a6f0b89553df938b9bff0205a3e1a17",
    "tangent/neumann/exponential-euler/callable/gamma":
        "97ea6a8a682f764d4a0c5ac1ade9c5296021afac328c1ec12ef366657797c4f6",
    "tangent/neumann/exponential-euler/callable/leads":
        "d2db0b120f5e437c6cdd45fa8f3f213c32d41563b4006ad42944307330674b1c",
    "tangent/neumann/exponential-euler/scalar/derivatives":
        "c9cd52b70b06386d27969d7dd52f5d6e820a425661ddef8a83539650e10424f6",
    "tangent/neumann/exponential-euler/scalar/gamma":
        "e95627c1532295daac1ede9dc421862349a9370fca87cb8e5c85470e67a5c3d7",
    "tangent/neumann/exponential-euler/scalar/leads":
        "0c2fe752b26d8399654767d2fce8bddaf57a548b9337950738c7809ef5dd623f",
    "tangent/neumann/forcing+drift/derivatives":
        "3786edcd929bb3703a3df384c2cc5dfcd9d28fa791baff35a4fd863f64eb5945",
    "tangent/neumann/forcing+drift/gamma":
        "aa3a453bc72c0a32918e54bd9c3f8a7180908bdb6ff1451d084dfed4806d1817",
    "tangent/neumann/forcing+drift/leads":
        "bd33bf3745072b138c064a9e80bf3a1561e95af9288f9ae5ac4e6989ed86e54c",
    "tangent/neumann/linear/derivatives":
        "15992b23e01fcf8ca0eab27d905f4297a7c958465168059adfb75affdded8a15",
    "tangent/neumann/linear/gamma":
        "8d70b7221fa3363435fb62acfd6c380cc5afb3d655d69c17caea11e5fcc5eaab",
    "tangent/neumann/linear/leads":
        "a8d5ab9bee3000d08c4fbca9dd3711dc6f18275e301cc939f27396bba91c1b70",
    "tangent/neumann/reaction/derivatives":
        "dd47214a474e4d6fcfd7498f70edaf28fcccab738a2451336bc2ee21f975a4b8",
    "tangent/neumann/reaction/gamma":
        "caac4540f3b7e782b20f16f7bae890f74f23506138c38d51fa5b44a225b3874b",
    "tangent/neumann/reaction/leads":
        "0c2fe752b26d8399654767d2fce8bddaf57a548b9337950738c7809ef5dd623f",
    "tangent/neumann/semi-implicit/callable/derivatives":
        "12b15162160e6c01626dc9ee3c78f6143ddbf50abb5af5ddd2e48ffa0e4f6768",
    "tangent/neumann/semi-implicit/callable/gamma":
        "79d01078532523f15a3b629b053c9be69e0dc50c354a670a1c2e632dc0d406ca",
    "tangent/neumann/semi-implicit/callable/leads":
        "ede6df94b41a9859908996c0bc6a4191cc308ebb9e94939fb3836d8d505a126e",
    "tangent/neumann/semi-implicit/scalar/derivatives":
        "853e71c8a12228040e9e8c147fdafd485e2e5284e6162e773ef982eda304b493",
    "tangent/neumann/semi-implicit/scalar/gamma":
        "7317afc3aee0598f3b5943a387d16c5c3b7b2224322ef62571d90e2f7807692b",
    "tangent/neumann/semi-implicit/scalar/leads":
        "51775a6b8f58263eaf71a083c12c0001ca79816ab97244df77cba79989b09e37",
    "tangent/neumann/thin2-sliced/derivatives":
        "00e5623c8ee9fa97c5dce53005d0ca7d0691578a9d012ab4f043a2f7dcd0736c",
    "tangent/neumann/thin2-sliced/gamma":
        "6c0cfb19110b3931b06714c0a3dcd29898a0e1dc796cefdcd7ee5e86b6e966ea",
    "tangent/neumann/thin2-sliced/leads":
        "6e90f85a38e352c6703c37d1aa0cd53ca07b7e5fbbd352cc242194e4269b0d26",
}


class TestHotPathGoldenBits:
    def test_every_case_is_pinned(self):
        # test_bits compares each case's outputs with its pins by name
        assert {key.rsplit("/", 1)[0] for key in GOLDEN} == set(CASES)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bits(self, case):
        got = {name: _digest(arr) for name, arr in CASES[case]().items()}
        want = {key[len(case) + 1:]: digest for key, digest in GOLDEN.items()
                if key.rsplit("/", 1)[0] == case}
        assert got == want
