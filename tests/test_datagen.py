import numpy as np
import pytest
from scipy.stats import ks_2samp

from cmpad.datagen import (
    ATTACK_TYPES,
    GeneratorSpec,
    MultiModalSample,
    bonafide_pair,
    generate,
    oracle_separability,
)

SMALL = GeneratorSpec(image_size=16, n_identities=6, samples_per_identity=4, seed=5)
# large enough for the statistical oracles (200 samples per class)
STAT = GeneratorSpec(image_size=16, n_identities=10, samples_per_identity=20, seed=123)


@pytest.fixture(scope="module")
def stat_samples():
    return generate(STAT)


def by_type(samples, attack_type):
    return [s for s in samples if s.attack_type == attack_type]


class TestSpecValidation:
    def test_too_few_identities(self):
        with pytest.raises(ValueError, match="identities"):
            GeneratorSpec(n_identities=4)

    def test_bad_strength(self):
        with pytest.raises(ValueError, match="attack_strength"):
            GeneratorSpec(attack_strength=0.0)

    def test_unknown_attack(self):
        with pytest.raises(ValueError, match="unknown attack"):
            GeneratorSpec(attack_types=("C_VISIBLE",))

    @pytest.mark.parametrize("key", ["channels_a", "channels_b"])
    @pytest.mark.parametrize("count", [0, 2, 4])
    def test_channel_count_a_raster_cannot_hold(self, key, count):
        with pytest.raises(ValueError, match=f"generator.{key}"):
            GeneratorSpec(**{key: count})

    def test_no_attack_types(self):
        with pytest.raises(ValueError, match="generator.attack_types"):
            GeneratorSpec(attack_types=())


class TestDeterminism:
    def test_same_spec_same_bytes(self):
        a = generate(SMALL)
        b = generate(SMALL)
        assert [s.id for s in a] == [s.id for s in b]
        for sa, sb in zip(a, b):
            assert sa.x_a.tobytes() == sb.x_a.tobytes()
            assert sa.x_b.tobytes() == sb.x_b.tobytes()

    def test_seed_changes_data(self):
        a = generate(SMALL)
        b = generate(GeneratorSpec(**{**SMALL.__dict__, "seed": 6}))
        assert any(sa.x_a.tobytes() != sb.x_a.tobytes() for sa, sb in zip(a, b))


class TestStructure:
    def test_counts_and_labels(self):
        samples = generate(SMALL)
        per_kind = SMALL.n_identities * SMALL.samples_per_identity
        assert len(samples) == per_kind * (1 + len(SMALL.attack_types))
        for s in samples:
            assert (s.label == 1) == (s.attack_type == "bonafide")

    def test_pixel_range_and_quantization(self):
        for s in generate(SMALL)[:20]:
            for arr in (s.x_a, s.x_b):
                assert arr.min() >= 0.0 and arr.max() <= 1.0
                np.testing.assert_array_equal(np.round(arr * 255), arr * 255)

    def test_identity_partition(self):
        samples = generate(SMALL)
        identities = {s.identity for s in samples}
        assert len(identities) == SMALL.n_identities
        for ident in identities:
            assert sum(s.identity == ident for s in samples) == len(samples) // SMALL.n_identities

    def test_unique_ids(self):
        samples = generate(SMALL)
        assert len({s.id for s in samples}) == len(samples)


class TestChannelBlindness:
    def test_a_visible_channel_b_byte_equal_to_bonafide_process(self):
        # the untouched channel of an attack is exactly the bonafide draw
        spec = GeneratorSpec(
            image_size=16, n_identities=6, samples_per_identity=3,
            attack_types=("A_VISIBLE",), seed=9,
        )
        samples = generate(spec)
        for s in by_type(samples, "A_VISIBLE"):
            ident = int(s.identity.removeprefix("id"))
            slot = int(s.id.split("-")[1])
            xa_bona, xb_bona = bonafide_pair(spec, ident, slot)
            assert s.x_b.tobytes() == xb_bona.tobytes()
            assert s.x_a.tobytes() != xa_bona.tobytes()

    def test_b_visible_channel_a_byte_equal_to_bonafide_process(self):
        spec = GeneratorSpec(
            image_size=16, n_identities=6, samples_per_identity=3,
            attack_types=("B_VISIBLE",), seed=9,
        )
        samples = generate(spec)
        for s in by_type(samples, "B_VISIBLE"):
            ident = int(s.identity.removeprefix("id"))
            slot = int(s.id.split("-")[1])
            xa_bona, xb_bona = bonafide_pair(spec, ident, slot)
            assert s.x_a.tobytes() == xa_bona.tobytes()
            assert s.x_b.tobytes() != xb_bona.tobytes()


def _marginals(samples, channel):
    arrs = [s.x_a if channel == "a" else s.x_b for s in samples]
    return [float(a.mean()) for a in arrs], [float(a.var()) for a in arrs]


class TestStatisticalContracts:
    def test_a_visible_invisible_in_channel_b(self, stat_samples):
        bona = by_type(stat_samples, "bonafide")
        avis = by_type(stat_samples, "A_VISIBLE")
        means_b, vars_b = _marginals(bona, "b")
        means_a, vars_a = _marginals(avis, "b")
        assert ks_2samp(means_b, means_a).pvalue > 0.01
        assert ks_2samp(vars_b, vars_a).pvalue > 0.01

    def test_both_visible_differs_in_both_channels(self, stat_samples):
        bona = by_type(stat_samples, "bonafide")
        both = by_type(stat_samples, "BOTH_VISIBLE")
        for channel in ("a", "b"):
            means_b, vars_b = _marginals(bona, channel)
            means_x, vars_x = _marginals(both, channel)
            p_mean = ks_2samp(means_b, means_x).pvalue
            p_var = ks_2samp(vars_b, vars_x).pvalue
            assert min(p_mean, p_var) < 0.01


class TestSeparabilityOracle:
    def test_blind_channel_near_chance(self, stat_samples):
        group = by_type(stat_samples, "bonafide") + by_type(stat_samples, "A_VISIBLE")
        assert oracle_separability(group, "b") <= 0.60

    def test_visible_channel_separable(self, stat_samples):
        group = by_type(stat_samples, "bonafide") + by_type(stat_samples, "A_VISIBLE")
        assert oracle_separability(group, "a") >= 0.90

    def test_single_class_rejected(self, stat_samples):
        with pytest.raises(ValueError, match="both classes"):
            oracle_separability(by_type(stat_samples, "bonafide"), "a")

    def test_too_few_samples_rejected(self):
        samples = generate(SMALL)
        with pytest.raises(ValueError, match="at least"):
            oracle_separability(samples, "a")

    def test_bad_channel(self, stat_samples):
        with pytest.raises(ValueError, match="channel"):
            oracle_separability(stat_samples, "c")
