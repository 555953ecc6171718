"""The native backend: bit-parallel + striped-SW kernels and routing.

Standing invariants:

* every accelerated (op, model, mode) combo scores **bit-for-bit**
  like the numpy kernels and the per-cell references — the C
  extension, the numpy-uint64 fallback, and the oracles form a
  three-way parity triangle (``bitparallel_scores_batch`` vs
  ``bitparallel_score_reference``, striped SW vs
  ``local_score_reference``);
* word-boundary lengths (63/64/65, 127/128/129) and degenerate
  (empty, ``N``-laden) sequences are exercised explicitly — the
  bit-parallel kernels work in 64-cell words and the eq tables cover
  A/C/G/T only;
* capability probing is an optimization contract, not a correctness
  one: un-accelerated combos fall through to numpy with identical
  results, both through the facade and on the backend directly;
* ``backend`` is a per-request knob end to end: service round-trips
  honor it, unknown names fail only their own request.
"""

from __future__ import annotations

import threading

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fragalign.align.bitparallel import (
    bitparallel_score_reference,
    bitparallel_scores_batch,
    flat_model_family,
)
from fragalign.align.pairwise import (
    affine_banded_align_batch,
    affine_banded_scores_batch,
    affine_scores_batch,
    global_score_reference,
    local_score_reference,
    overlap_score_reference,
)
from fragalign.align.scoring_matrices import SubstitutionModel, unit_dna
from fragalign._native import HAVE_NATIVE
from fragalign.engine import AlignmentEngine, NativeBackend, get_backend
from fragalign.engine.backends import NumpyBackend
from fragalign.engine.native import _striped_params
from fragalign.job import JobSpec

# Word-boundary lengths: the kernels pack 64 DP cells per uint64 word.
BOUNDARY_LENGTHS = [1, 2, 3, 5, 17, 63, 64, 65, 127, 128, 129, 200]

_ENC = np.full(256, 4, dtype=np.uint8)
for _i, _ch in enumerate("ACGTN"):
    _ENC[ord(_ch)] = _i


def _enc(s: str) -> np.ndarray:
    return _ENC[np.frombuffer(s.encode(), dtype=np.uint8)]


def _rand_seq(rng, n: int, alphabet: str = "ACGT") -> str:
    return "".join(alphabet[c] for c in rng.integers(0, len(alphabet), size=n))


@st.composite
def _flat_batches(draw, max_batch: int):
    """A uniform-shape batch of A/C/G/T pairs, its sides from
    ``BOUNDARY_LENGTHS``, like every engine batch kernel's."""
    n = draw(st.sampled_from(BOUNDARY_LENGTHS))
    m = draw(st.sampled_from(BOUNDARY_LENGTHS))
    size = draw(st.integers(1, max_batch))

    def seq(k: int):
        return st.text(alphabet="ACGT", min_size=k, max_size=k)

    return draw(st.lists(st.tuples(seq(n), seq(m)), min_size=size, max_size=size))


def _lev_model(c: float = 1.0) -> SubstitutionModel:
    matrix = np.full((5, 5), -c)
    np.fill_diagonal(matrix, 0.0)
    matrix[4, :] = 0.0
    matrix[:, 4] = 0.0
    return SubstitutionModel(matrix=matrix, gap=-c)


FLAT_MODELS = {
    "unit": unit_dna(),
    "unit_scaled": unit_dna(match=2.0, mismatch=-2.0, gap=-2.0),
    "unit_half": unit_dna(match=0.5, mismatch=-0.5, gap=-0.5),
    "lev": _lev_model(),
    "lev_half": _lev_model(0.5),
}


class TestFlatModelFamily:
    def test_unit_and_lev_families_detected(self):
        assert flat_model_family(unit_dna()) == ("unit", 1.0)
        assert flat_model_family(unit_dna(2.0, -2.0, -2.0)) == ("unit", 2.0)
        assert flat_model_family(_lev_model()) == ("lev", 1.0)
        assert flat_model_family(_lev_model(0.5)) == ("lev", 0.5)

    def test_non_flat_models_rejected(self):
        from fragalign.align.scoring_matrices import transition_transversion

        assert flat_model_family(transition_transversion()) is None
        # match/mismatch magnitudes that disagree with the gap
        assert flat_model_family(unit_dna(match=2.0, mismatch=-1.0)) is None

    def test_non_half_integral_cost_rejected(self):
        # 2c must be integral for the +-c ladder to stay on int grid.
        assert flat_model_family(unit_dna(0.3, -0.3, -0.3)) is None


class TestBitparallelParity:
    """Numpy-uint64 kernel vs the per-cell references."""

    @pytest.mark.parametrize("model_name", sorted(FLAT_MODELS))
    @pytest.mark.parametrize("mode", ["global", "overlap"])
    @given(pairs=_flat_batches(3))
    def test_kernel_matches_reference_fuzz(self, model_name, mode, pairs):
        model = FLAT_MODELS[model_name]
        got = bitparallel_scores_batch(pairs, model=model, mode=mode)
        want = [bitparallel_score_reference(a, b, model=model, mode=mode) for a, b in pairs]
        assert np.array_equal(got, np.asarray(want))

    @pytest.mark.parametrize("mode", ["global", "overlap"])
    def test_reference_matches_classic_dp(self, mode):
        model = unit_dna()
        classic = (
            global_score_reference if mode == "global" else overlap_score_reference
        )
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = _rand_seq(rng, int(rng.integers(0, 70)))
            b = _rand_seq(rng, int(rng.integers(0, 70)))
            got = bitparallel_score_reference(a, b, model=model, mode=mode)
            want = classic(a, b, model)
            if mode == "overlap":
                want = want[0] if isinstance(want, tuple) else want
            assert got == want, (a, b)

    def test_word_boundaries_exact(self):
        model = unit_dna()
        rng = np.random.default_rng(63)
        for n in (63, 64, 65, 127, 128, 129):
            for m in (63, 64, 65):
                a, b = _rand_seq(rng, n), _rand_seq(rng, m)
                got = bitparallel_scores_batch([(a, b)], model=model)
                assert got[0] == global_score_reference(a, b, model)

    def test_empty_and_degenerate(self):
        model = unit_dna()
        for pair, want in [(("", ""), 0.0), (("", "ACGT"), -4.0), (("ACGT", ""), -4.0)]:
            got = bitparallel_scores_batch([pair], model=model)
            assert list(got) == [want]

    def test_lev_overlap_is_identically_zero(self):
        for pair in [("ACGT", "TTTT"), ("A", "CCCCCCC")]:
            got = bitparallel_scores_batch([pair], model=_lev_model(), mode="overlap")
            assert list(got) == [0.0]


@pytest.mark.skipif(not HAVE_NATIVE, reason="C extension not built")
class TestNativeCParity:
    """C kernels vs the numpy-uint64 kernels (same inputs, exact)."""

    @pytest.mark.parametrize("model_name", sorted(FLAT_MODELS))
    @pytest.mark.parametrize("mode", ["global", "overlap"])
    @given(pairs=_flat_batches(4))
    def test_c_matches_numpy_kernel(self, model_name, mode, pairs):
        from fragalign._native import bitparallel_scores_native

        model = FLAT_MODELS[model_name]
        family, c = flat_model_family(model)
        if family == "lev" and mode == "overlap":
            pytest.skip("short-circuited to zeros before the kernel")
        ref = bitparallel_scores_batch(pairs, model=model, mode=mode)
        ac = np.stack([_enc(a) for a, _ in pairs])
        bc = np.stack([_enc(b) for _, b in pairs])
        got = bitparallel_scores_native(ac, bc, family, mode) * c
        assert np.array_equal(ref, got.astype(np.float64))

    def test_c_rejects_out_of_range_codes(self):
        from fragalign._native import bitparallel_scores_native

        ac = np.array([[0, 1, 4]], dtype=np.uint8)  # N: code 4 > 3
        bc = np.array([[0, 1, 2]], dtype=np.uint8)
        with pytest.raises(ValueError):
            bitparallel_scores_native(ac, bc, "unit", "global")

    def test_striped_matches_local_reference(self):
        from fragalign._native import striped_local_scores_native

        rng = np.random.default_rng(17)
        matrix = np.full((5, 5), -1, dtype=np.int32)
        np.fill_diagonal(matrix, 2)
        matrix[4, :] = 0
        matrix[:, 4] = 0
        model = SubstitutionModel(matrix=matrix.astype(float), gap=-1.0)
        for _ in range(25):
            n = int(rng.choice(BOUNDARY_LENGTHS))
            m = int(rng.choice(BOUNDARY_LENGTHS))
            a = _rand_seq(rng, n, "ACGTN")
            b = _rand_seq(rng, m, "ACGTN")
            got = striped_local_scores_native(
                _enc(a)[None, :], _enc(b)[None, :], matrix, 1
            )
            assert float(got[0]) == local_score_reference(a, b, model), (a, b)


class TestNativeBackend:
    def test_accelerates_contract(self):
        be = NativeBackend()
        unit = unit_dna()
        assert be.accelerates("score", unit, JobSpec("global"))
        assert be.accelerates("score_many", unit, JobSpec("overlap"))
        assert not be.accelerates("align", unit, JobSpec("global"))
        assert not be.accelerates("score", unit, JobSpec("banded", 4))
        assert not be.accelerates("score", unit, JobSpec("global", gap_open=-4.0, gap_extend=-1.0))
        from fragalign.align.scoring_matrices import transition_transversion

        assert not be.accelerates("score", transition_transversion(), JobSpec("global"))
        # local acceleration needs the C extension
        assert be.accelerates("score", unit, JobSpec("local")) == be.use_c

    def test_force_fallback_matches_c(self):
        pairs = [("ACGTACGTAC", "ACGTTCGTAC"), ("AAAA", "AAAT"), ("", "AC")]
        with AlignmentEngine(backend="native") as eng:
            via_default = eng.score_many(pairs)
        fallback = NativeBackend(force_fallback=True)
        with AlignmentEngine() as eng:
            prepared = [eng.prepare(a, b) for a, b in pairs]
        # uniform-shape batches only for the direct backend call
        for p, want in zip(prepared, via_default):
            got = fallback.score(p, unit_dna(), JobSpec("global"))
            assert got == want

    def test_require_native_flag(self):
        if HAVE_NATIVE:
            assert NativeBackend(require_native=True).use_c
        else:
            with pytest.raises(RuntimeError):
                NativeBackend(require_native=True)

    def test_non_finite_model_equals_numpy_in_every_mode(self):
        # A -inf mismatch passes np.rint(x) == x; the striped kernel's
        # int32 profile cannot hold it, so nothing native may claim it.
        matrix = unit_dna().matrix.copy()
        matrix[matrix == -1] = -np.inf
        model = SubstitutionModel(matrix=matrix, gap=-1.0)
        assert not model.integral and _striped_params(model) is None
        assert not any(
            NativeBackend().accelerates("score_many", model, JobSpec(mode))
            for mode in ("global", "local", "overlap")
        )
        pairs = [("ACGTACG", "ACGTACG"), ("ACGTTT", "ACGAAA"), ("ACGTACGTAC", "TTACGTACG")]
        knobs = [{"mode": "global"}, {"mode": "local"}, {"mode": "overlap"},
                 {"mode": "banded", "band": 4}]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with AlignmentEngine("native", model) as nat, AlignmentEngine("numpy", model) as ref:
                for kn in knobs:
                    got = nat.score_many(pairs, **kn)
                    assert np.array_equal(got, ref.score_many(pairs, **kn)), kn
                assert list(nat.score_many(pairs, mode="local")) == [7.0, 3.0, 7.0]

    def test_n_pairs_split_from_bitparallel_path(self):
        rng = np.random.default_rng(5)
        pairs = [
            (_rand_seq(rng, 40, "ACGTN"), _rand_seq(rng, 40, "ACGTN"))
            for _ in range(8)
        ]
        with AlignmentEngine(backend="native") as eng:
            got = eng.score_many(pairs)
        with AlignmentEngine(backend="numpy") as eng:
            want = eng.score_many(pairs)
        assert np.array_equal(got, want)


class TestFacadeRouting:
    """The engine facade's capability probing and per-call backend."""

    PAIRS = [("ACGTACGTACGTACGT", "ACGTTCGTACGAACGT"), ("AAAA", "AAAT")]

    @pytest.mark.parametrize("mode", ["global", "overlap", "local"])
    def test_native_equals_numpy_through_facade(self, mode):
        with AlignmentEngine(backend="native", mode=mode) as nat, AlignmentEngine(
            backend="numpy", mode=mode
        ) as np_eng:
            assert np.array_equal(
                nat.score_many(self.PAIRS), np_eng.score_many(self.PAIRS)
            )

    def test_per_call_backend_override(self):
        with AlignmentEngine(backend="numpy") as eng:
            base = eng.score_many(self.PAIRS)
            assert np.array_equal(eng.score_many(self.PAIRS, backend="native"), base)
            assert np.array_equal(eng.score_many(self.PAIRS, backend="naive"), base)
            a1 = eng.align(*self.PAIRS[0])
            a2 = eng.align(*self.PAIRS[0], backend="native")
            assert a1 == a2  # align falls through to numpy either way

    def test_unaccelerated_combo_falls_through(self):
        # affine gaps: native reports unaccelerated, facade uses numpy.
        with AlignmentEngine(backend="native") as nat, AlignmentEngine() as ref:
            got = nat.score_many(self.PAIRS, gap_open=-4.0, gap_extend=-1.0)
            want = ref.score_many(self.PAIRS, gap_open=-4.0, gap_extend=-1.0)
            assert np.array_equal(got, want)

    def test_unknown_backend_raises(self):
        with AlignmentEngine() as eng:
            with pytest.raises(Exception):
                eng.score(*self.PAIRS[0], backend="bogus")


class TestBandedAffineSinglePair:
    """The batch-of-one fast path in the banded Gotoh kernels."""

    def test_single_matches_batch_and_unbanded(self):
        rng = np.random.default_rng(23)
        for n, m in [(1, 1), (5, 3), (17, 17), (31, 33), (64, 64), (63, 65)]:
            a = _rand_seq(rng, n, "ACGTN")
            b = _rand_seq(rng, m, "ACGTN")
            for band in sorted({max(abs(n - m), 1), max(n, m)}):
                single = affine_banded_scores_batch([(a, b)], band)
                batch = affine_banded_scores_batch([(a, b)] * 3, band, chunk=3)
                assert single[0] == batch[0]
                al1 = affine_banded_align_batch([(a, b)], band)[0]
                al2 = affine_banded_align_batch([(a, b)] * 3, band, chunk=3)[0]
                assert al1.score == al2.score and al1.pairs == al2.pairs
                if band >= max(n, m):
                    full = affine_scores_batch([(a, b)])
                    assert single[0] == pytest.approx(full[0])


class TestServiceBackendKnob:
    def test_backend_round_trip_and_bad_name(self, tmp_path):
        from fragalign.service.client import AlignmentClient
        from fragalign.service.server import (
            ServiceConfig,
            run_server,
            wait_for_port_file,
        )

        port_file = str(tmp_path / "svc.port")
        config = ServiceConfig(host="127.0.0.1", port=0, backend="numpy")
        thread = threading.Thread(
            target=run_server, args=(config, port_file), daemon=True
        )
        thread.start()
        port = wait_for_port_file(port_file)
        pairs = [("ACGTACGTAC", "ACGTTCGTAC"), ("AAAA", "AAAT"), ("", "ACGT")]
        try:
            with AlignmentClient("127.0.0.1", port) as client:
                native = client.score_many(pairs, 4, mode="global", backend="native")
                default = client.score_many(pairs, 4, mode="global")
                assert native == default
                # unknown backend fails just that request, typed
                with pytest.raises(Exception, match="backend"):
                    client.score(*pairs[0], backend="bogus")
                # ...and the connection still serves afterwards
                assert client.score(*pairs[0], backend="native") == native[0]
                client.shutdown()
        finally:
            thread.join(timeout=10)

    def test_backend_is_group_key_not_cache_key(self):
        from fragalign.job import FIELDS, KEYSET_FIELDS, KNOBS
        from fragalign.service.protocol import parse_request

        assert FIELDS["backend"]["group_key"] and "backend" in KEYSET_FIELDS
        assert not FIELDS["backend"]["cache_key"]
        # memory and backend never change the cache or ring key, but
        # they do change the dispatch-group key.
        base = JobSpec("global", gap_open=-3, gap_extend=-1, memory="tensor", backend="numpy")
        for other in (JobSpec("global", None, -3.0, -1.0, "auto", "native"),
                      JobSpec("global", None, -3, -1)):
            assert other.cache_key("align", "AC", "GT", "fp") == base.cache_key(
                "align", "AC", "GT", "fp"
            )
            assert other.ring_key("align", "AC", "GT", "fp") == base.ring_key(
                "align", "AC", "GT", "fp"
            )
            assert other.group_key("align") != base.group_key("align")
        # trace and deadline fields are not spec fields at all: a request
        # that only adds them parses to the very same job.
        assert not {"trace_id", "span_id", "deadline_ms"} & set(KNOBS)
        assert not any(
            FIELDS[name][flag]
            for name in ("trace_id", "span_id", "deadline_ms")
            for flag in ("cache_key", "group_key", "keyset")
        )
        plain = {"op": "score", "a": "AC", "b": "GT", "mode": "local"}
        traced = dict(plain, trace_id="t" * 16, span_id="s" * 16, deadline_ms=250)
        assert parse_request(traced).spec == parse_request(plain).spec
        # An explicit default and an omitted one key identically.
        assert JobSpec().cache_key("score", "AC", "GT", "fp") == JobSpec(
            "global"
        ).cache_key("score", "AC", "GT", "fp")
        assert JobSpec().ring_key("score", "AC", "GT") == JobSpec("global", 8).ring_key(
            "score", "AC", "GT"
        )
        defaults = JobSpec("global", None, None, None, "auto", "numpy")
        assert JobSpec().resolve(defaults, "align").group_key("align") == JobSpec(
            memory="auto", backend="numpy"
        ).resolve(defaults, "align").group_key("align")


class TestRegistryExposure:
    def test_native_backend_registered(self):
        assert isinstance(get_backend("native"), NativeBackend)
