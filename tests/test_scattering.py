import re
import sys
import warnings

import numpy as np
import pytest

from contextsim import circuits
from contextsim.circuits import apply, full_gate_matrix
from contextsim.linalg import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z
from contextsim.scattering import (
    TemporalCorrelationSpec,
    TimeSlot,
    _probe_circuit,
    build_scattering_circuit,
    correlator_direct,
    correlator_scattering,
    heisenberg_observable,
    parse_angle,
    probe_sigma_y,
    probe_sigma_z,
    random_correlation_spec,
    random_dichotomic,
    slot,
)
from contextsim.states import (
    basis_state,
    density_of,
    haar_random_state,
    haar_random_unitary,
    mixed_state,
    pure_state,
)
from contextsim.sequential import correlator_sequential, joint_distribution

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def pm_slot(left, right):
    return slot((left, right))


def applied_block_product(spec):
    """Oracle: the controlled product as the circuit applies it (later slots
    multiply on the left)."""
    u = np.eye(2 ** spec.system_qubits, dtype=complex)
    for ts in spec.slots:
        u = heisenberg_observable(ts) @ u
    return u


class TestHeisenbergObservable:
    def test_identity_evolution(self):
        ts = pm_slot(PAULI_Z, PAULI_I)
        assert np.allclose(heisenberg_observable(ts), np.kron(PAULI_Z, PAULI_I))

    def test_rotation_turns_z_into_x(self):
        # exp(i pi sigma_y / 4) turns Z into X
        u = np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2)
        ts = slot((PAULI_Z,), u)
        assert np.allclose(heisenberg_observable(ts), PAULI_X, atol=1e-12)

    def test_conjugation_preserves_dichotomic_spectrum(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            ts = TimeSlot(
                observables=(random_dichotomic(rng), random_dichotomic(rng)),
                evolution=haar_random_unitary(4, rng),
            )
            w = np.linalg.eigvalsh(heisenberg_observable(ts))
            assert np.allclose(np.abs(w), 1.0, atol=1e-10)


class TestCircuitShape:
    def test_zero_slots_reads_one(self):
        spec = TemporalCorrelationSpec(system_qubits=1, slots=())
        assert correlator_scattering(basis_state(1, "0"), spec) == pytest.approx(1.0, abs=1e-12)
        assert correlator_direct(basis_state(1, "0"), spec) == pytest.approx(1.0, abs=1e-12)

    def test_circuit_matches_hadamard_sandwich_oracle(self):
        rng = np.random.default_rng(1)
        spec = random_correlation_spec(1, 3, rng)
        circuit = build_scattering_circuit(spec)
        got = np.eye(2 ** circuit.qubits, dtype=complex)
        for op in circuit.ops:
            got = full_gate_matrix(op, circuit.qubits) @ got
        u = applied_block_product(spec)
        h_full = np.kron(HADAMARD, np.eye(2))
        blocks = np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), u]])
        assert np.allclose(got, h_full @ blocks @ h_full, atol=1e-10)

    def test_emits_probe_plus_system(self):
        spec = random_correlation_spec(2, 2, np.random.default_rng(2))
        circuit = build_scattering_circuit(spec)
        assert circuit.qubits == 3
        assert len(circuit.ops) == 4  # H, two controlled blocks, H

    def test_spec_owns_its_read_only_blocks(self):
        spec = random_correlation_spec(2, 3, np.random.default_rng(3))
        assert isinstance(spec.slots[0].block, np.ndarray)
        assert spec.blocks.shape == (3, 4, 4) and not spec.blocks.flags.writeable
        assert all(np.array_equal(b, ts.block) for b, ts in zip(spec.blocks, spec.slots))
        assert TemporalCorrelationSpec(system_qubits=2, slots=()).blocks.shape == (0, 4, 4)

    def test_blocks_are_the_slots_own(self):
        spec = random_correlation_spec(2, 3, np.random.default_rng(3))
        blocks = build_scattering_circuit(spec).ops[1:-1]
        assert len(blocks) == 3
        assert all(np.array_equal(op.matrix, ts.block) for op, ts in zip(blocks, spec.slots))


class TestProbeReadout:
    def test_probe_zero(self):
        st = pure_state(np.kron([1, 0], haar_random_state(1, np.random.default_rng(3)).amplitudes))
        assert probe_sigma_z(st) == pytest.approx(1.0, abs=1e-12)

    def test_probe_one(self):
        st = pure_state(np.kron([0, 1], haar_random_state(1, np.random.default_rng(4)).amplitudes))
        assert probe_sigma_z(st) == pytest.approx(-1.0, abs=1e-12)

    def test_probe_sigma_y_zero_before_circuit(self):
        st = pure_state(np.kron([1, 0], haar_random_state(1, np.random.default_rng(5)).amplitudes))
        assert probe_sigma_y(st) == pytest.approx(0.0, abs=1e-12)

    def test_sigma_y_vanishes_for_commuting_slots(self):
        # commuting dichotomic product is Hermitian, so tr(rho U) is real
        spec = TemporalCorrelationSpec(
            system_qubits=2,
            slots=(pm_slot(PAULI_Z, PAULI_I), pm_slot(PAULI_Z, PAULI_X), pm_slot(PAULI_I, PAULI_X)),
        )
        st = haar_random_state(2, np.random.default_rng(6))
        out = apply(build_scattering_circuit(spec), _with_probe(st))
        assert probe_sigma_y(out) == pytest.approx(0.0, abs=1e-10)

    def test_sigma_y_matches_direct_trace_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            spec = random_correlation_spec(2, 3, rng)
            st = haar_random_state(2, rng)
            out = apply(build_scattering_circuit(spec), _with_probe(st))
            u = applied_block_product(spec)
            oracle = -np.trace(density_of(st) @ u).imag
            assert probe_sigma_y(out) == pytest.approx(oracle, abs=1e-10)


def _with_probe(state):
    return pure_state(np.kron([1, 0], state.amplitudes))


class TestCorrelators:
    def test_gamma_c_big_c_reads_minus_one(self):
        spec = TemporalCorrelationSpec(
            system_qubits=2,
            slots=(
                pm_slot(PAULI_Y, PAULI_Y),
                pm_slot(PAULI_X, PAULI_X),
                pm_slot(PAULI_Z, PAULI_Z),
            ),
        )
        for seed in range(5):
            st = haar_random_state(2, np.random.default_rng(seed))
            assert correlator_scattering(st, spec) == pytest.approx(-1.0, abs=1e-10)

    def test_row_reads_plus_one(self):
        spec = TemporalCorrelationSpec(
            system_qubits=2,
            slots=(
                pm_slot(PAULI_Z, PAULI_I),
                pm_slot(PAULI_I, PAULI_Z),
                pm_slot(PAULI_Z, PAULI_Z),
            ),
        )
        for seed in range(5):
            st = haar_random_state(2, np.random.default_rng(seed + 10))
            assert correlator_scattering(st, spec) == pytest.approx(1.0, abs=1e-10)

    def test_column_on_00_reads_plus_one(self):
        spec = TemporalCorrelationSpec(
            system_qubits=2,
            slots=(
                pm_slot(PAULI_Z, PAULI_I),
                pm_slot(PAULI_Z, PAULI_X),
                pm_slot(PAULI_I, PAULI_X),
            ),
        )
        assert correlator_direct(basis_state(2, "00"), spec) == pytest.approx(1.0, abs=1e-12)
        assert correlator_scattering(basis_state(2, "00"), spec) == pytest.approx(1.0, abs=1e-12)

    def test_single_z_on_plus_state(self):
        spec = TemporalCorrelationSpec(system_qubits=1, slots=(slot((PAULI_Z,)),))
        plus = pure_state(np.ones(2) / np.sqrt(2))
        assert correlator_scattering(plus, spec) == pytest.approx(0.0, abs=1e-12)

    def test_scattering_equals_direct_on_random_specs(self):
        for seed in range(50):
            rng = np.random.default_rng(3000 + seed)
            n = int(rng.integers(1, 3))
            spec = random_correlation_spec(n, int(rng.integers(1, 4)), rng)
            st = haar_random_state(n, rng)
            assert abs(correlator_scattering(st, spec) - correlator_direct(st, spec)) < 1e-10

    def test_mixed_input_state(self):
        spec = random_correlation_spec(2, 2, np.random.default_rng(8))
        st = mixed_state(np.eye(4) / 4)
        assert abs(correlator_scattering(st, spec) - correlator_direct(st, spec)) < 1e-10

    def test_magnitude_bounded_by_one(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            spec = random_correlation_spec(1, 3, rng)
            st = haar_random_state(1, rng)
            assert abs(correlator_scattering(st, spec)) <= 1 + 1e-10

    def test_probe_marginal_normalized(self):
        spec = random_correlation_spec(2, 2, np.random.default_rng(10))
        out = apply(build_scattering_circuit(spec), _with_probe(haar_random_state(2, np.random.default_rng(11))))
        # trace out the system: the probe is the leading factor of the register
        probe = np.trace(density_of(out).reshape(2, 4, 2, 4), axis1=1, axis2=3)
        assert np.trace(probe).real == pytest.approx(1.0, abs=1e-10)

    def test_state_spec_mismatch(self):
        spec = random_correlation_spec(2, 1, np.random.default_rng(12))
        with pytest.raises(ValueError):
            correlator_scattering(basis_state(1, "0"), spec)


class TestFixedWiring:
    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("slots", [0, 1, 4])
    def test_one_readout_gate_is_the_only_gate_built(self, slots, mixed, monkeypatch):
        # the probe circuit runs on its fixed wiring with no gate objects;
        # the one Circuit and the one GateOp of a call are the readout's embed
        spec = random_correlation_spec(2, slots, np.random.default_rng(31))
        st = haar_random_state(2, np.random.default_rng(32))
        st = mixed_state(density_of(st)) if mixed else st
        built = []

        def recorded(cls):
            init = cls.__post_init__

            def post_init(self):
                frame, callers = sys._getframe(1), []
                while frame is not None:
                    callers.append(frame.f_code)
                    frame = frame.f_back
                built.append((cls.__name__, circuits.embed.__code__ in callers))
                init(self)

            monkeypatch.setattr(cls, "__post_init__", post_init)

        recorded(circuits.GateOp)
        recorded(circuits.Circuit)
        value = correlator_scattering(st, spec)
        assert sorted(built) == [("Circuit", True), ("GateOp", True)]
        assert value == pytest.approx(correlator_direct(st, spec), abs=1e-10)


class TestProbeCircuitMemoryOrder:
    """The probe route's kernel, ``_probe_circuit``, which runs a stack of
    probe circuits, reads a stack as the same bits whatever its memory layout:
    a zero-stride broadcast batch axis, a Fortran-ordered stack, a sliced stack
    or one with negative strides. Its operands are the route's: ``(T, 2d)``
    vectors |0> x psi, or for a mixed state the ``(T, 2d, d)`` columns of an
    isometry, ``np.eye(2d, d)`` on the route."""

    T = 12

    @pytest.mark.parametrize("mixed", [False, True])
    def test_broadcast_and_fortran_stacks_read_as_the_c_ordered_one(self, mixed):
        rng = np.random.default_rng(21)
        blocks = np.stack([haar_random_unitary(8, rng) for _ in range(self.T)])[:, None]
        if mixed:
            one = np.eye(16, 8)
        else:
            one = np.zeros(16, dtype=complex)
            one[:8] = haar_random_state(3, np.random.default_rng(22)).amplitudes
        c_ordered = np.ascontiguousarray(np.broadcast_to(one, (self.T,) + one.shape))
        expected = _probe_circuit(blocks, c_ordered).tobytes()
        for operand in (np.broadcast_to(one, c_ordered.shape), np.asfortranarray(c_ordered)):
            assert _probe_circuit(blocks, operand).tobytes() == expected

    @pytest.mark.parametrize("mixed", [False, True])
    def test_sliced_and_negative_stride_stacks_read_as_the_c_ordered_one(self, mixed):
        # a distinct operand and two blocks per spec; the kernel reads its
        # operand as given, so these views reach numpy's reshape and products;
        # a mixed operand is the isometry |0> x u, of a Haar unitary u per spec
        rng = np.random.default_rng(23)
        blocks = np.stack([[haar_random_unitary(8, rng) for _ in range(2)] for _ in range(self.T)])
        c_ordered = np.zeros((self.T, 16, 8) if mixed else (self.T, 16), dtype=complex)
        for t in range(self.T):
            seeded = np.random.default_rng(30 + t)
            c_ordered[t, :8] = haar_random_unitary(8, seeded) if mixed else haar_random_state(3, seeded).amplitudes
        flip = (slice(None, None, -1),) * c_ordered.ndim
        sliced = np.repeat(c_ordered, 2, axis=0)[::2]
        reversed_ = np.ascontiguousarray(c_ordered[flip])[flip]
        assert not sliced.flags.contiguous and all(s < 0 for s in reversed_.strides)
        expected = _probe_circuit(blocks, c_ordered).tobytes()
        for operand in (sliced, reversed_):
            assert _probe_circuit(blocks, operand).tobytes() == expected


class TestSingleRunSufficiency:
    def test_anticontrolled_run_reads_the_same(self):
        # one run with plain controls equals one run with anti-controls;
        # no two-run combination is needed for the readout
        from contextsim.circuits import Circuit, GateOp

        rng = np.random.default_rng(13)
        spec = random_correlation_spec(2, 2, rng)
        st = haar_random_state(2, rng)
        normal = build_scattering_circuit(spec)
        flipped_ops = []
        for op in normal.ops:
            if op.control is None:
                flipped_ops.append(op)
            else:
                flipped_ops.append(GateOp(op.label, op.matrix, op.targets, op.control, 0))
        flipped = Circuit(normal.qubits, tuple(flipped_ops))
        a = probe_sigma_z(apply(normal, _with_probe(st)))
        b = probe_sigma_z(apply(flipped, _with_probe(st)))
        assert a == pytest.approx(b, abs=1e-10)
        assert a == pytest.approx(correlator_direct(st, spec), abs=1e-10)


class TestSlotValidation:
    def test_non_dichotomic_rejected(self):
        with pytest.raises(ValueError):
            slot((0.5 * PAULI_Z,))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            slot((np.array([[0, 1], [0, 0]], dtype=complex),))

    def test_wrong_evolution_size_rejected(self):
        with pytest.raises(ValueError):
            TimeSlot(observables=(PAULI_Z,), evolution=np.eye(4, dtype=complex))

    def test_slot_count_must_match_system(self):
        with pytest.raises(ValueError):
            TemporalCorrelationSpec(system_qubits=2, slots=(slot((PAULI_Z,)),))

    def test_probe_route_refuses_a_register_above_the_cap(self):
        # the probe wiring exists for 1 to MAX_QUBITS system qubits; the
        # trace form reads any register
        spec = TemporalCorrelationSpec(system_qubits=4, slots=(slot((PAULI_Z,) * 4),))
        state = pure_state(np.eye(16)[0])
        with pytest.raises(ValueError, match="probe route reads registers of 1 to 3"):
            correlator_scattering(state, spec)
        assert correlator_direct(state, spec) == 1.0

    @pytest.mark.parametrize("qubits", [1.0, True, "1", 0])
    def test_register_size_must_be_a_positive_integer(self, qubits):
        with pytest.raises(ValueError, match="system_qubits"):
            TemporalCorrelationSpec(system_qubits=qubits, slots=(slot((PAULI_Z,)),))


@pytest.mark.parametrize("block", [2 * PAULI_Z, np.full((2, 2), np.nan)], ids=["scaled by 2", "NaN"])
class TestBadBlocksRefusedOnEveryPublicPath:
    """A caller reaches the probe and direct routes only through checked
    slots, and reads a stack of its own only through the checked
    ``correlator_sequential``. On |0> the unchecked probe and direct kernels
    both read the stack ``2 * [[Z, Z]]`` as 4.0, and a NaN stack as nan."""

    def test_slot_refuses_the_block(self, block):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                slot((block,))
            with pytest.raises(ValueError):
                TimeSlot(observables=(block,), evolution=PAULI_I)
            with pytest.raises(ValueError):
                TimeSlot(observables=(PAULI_Z,), evolution=block)

    def test_stack_reading_refuses_the_block(self, block):
        state = basis_state(1, "0")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for read in (correlator_sequential, joint_distribution):
                with pytest.raises(ValueError):
                    read(state, np.array([[block, block]]))
                with pytest.raises(ValueError):
                    read(state, (block, block))


class TestParseAngle:
    def test_parse_angle_forms(self):
        assert parse_angle("pi") == pytest.approx(np.pi)
        assert parse_angle("acos(-0.75)") == pytest.approx(float(np.arccos(-0.75)))
        assert parse_angle("0.25") == 0.25
        with pytest.raises(ValueError):
            parse_angle("acos(2)")

    def test_parse_angle_rejects_non_finite(self):
        for text in ("nan", "inf", "-inf", float("nan"), float("inf"), True, False):
            with pytest.raises(ValueError, match="angle"):
                parse_angle(text)

    def test_integer_beyond_float_range_rejected(self):
        # the CLI passes such an integer as text, which float() reads as +inf
        with pytest.raises(ValueError, match="not a finite number of radians"):
            parse_angle("1" + "0" * 400)

    @pytest.mark.parametrize("value", [1.5, np.float64(0.5), True])
    def test_parse_angle_reads_only_text(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^angle must be text, got {re.escape(repr(value))}$"):
                parse_angle(value)
