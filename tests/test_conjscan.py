import dataclasses
import json

import pytest

from curvesplit.conjscan import (
    R7_FAMILIES,
    ScanRecord,
    certify_unbalanced,
    classification7_spotcheck,
    scan_conjecture9,
    scan_record,
    search_min_product,
    summarize_scan,
)
from curvesplit.fatpoints import class_cohomology
from curvesplit.lattice import DivClass, NumType, semi_adjoint
from curvesplit.param import ParameterizationError, RetryLimitError, mix_seed, multiplicity_at, random_points
from curvesplit.splitting import splitting_moving_lines


class TestScan:
    def test_small_cap_all_balanced(self):
        # degrees <= 3 admit no even-degree all-odd exceptional type, and a
        # brute-force check of the short list gives gaps 0 or 1 throughout
        records, summary = scan_conjecture9(3, seed=5)
        assert summary["n_types"] == 4
        assert summary["n_semiadjoint"] == 0
        assert all(r.gap is None or r.gap <= 1 for r in records)
        assert summary["conjecture_consistent"]

    def test_mid_cap_includes_both_unbalanced_kinds(self):
        records, summary = scan_conjecture9(8, seed=5)
        by_type = {tuple(r.ntype.to_json()): r for r in records}
        asc = by_type[(4, 3, 1, 1, 1, 1, 1, 1, 1, 1)]
        non_asc = by_type[(8, 3, 3, 3, 3, 3, 3, 3, 1, 1)]
        assert asc.ascenzi and asc.gap == 2
        assert not non_asc.ascenzi and non_asc.gap == 2
        assert summary["proved_direction_violations"] == []

    def test_records_independent_of_enumeration_order(self):
        T = NumType(6, (3, 2, 2, 2, 2, 2, 2, 2, 0))
        a = scan_record(T, seed=9)
        b = scan_record(T, seed=9)
        assert a == b

    def test_summary_flags_missing_semiadjoint_gap(self):
        records, _ = scan_conjecture9(4, seed=5)
        summary = summarize_scan(records)
        assert summary["n_errors"] == 0
        assert summary["max_gap"] is not None


class TestCertify:
    def test_flagship_certificate(self, points9):
        cert = certify_unbalanced(DivClass(8, (3, 3, 3, 3, 3, 3, 3, 1, 1)), points9, seed=2)
        assert cert is not None
        assert cert.a_class == (3, 1, 1, 1, 1, 1, 1, 1, 0, 0)
        assert cert.h1_a == 0 and cert.le_a == 1 and cert.h0_residual == 0
        assert cert.computed.a == 3
        assert cert.product_bound == 3
        assert cert.valid

    def test_second_known_certificate(self, points9):
        cert = certify_unbalanced(DivClass(12, (5, 5, 5, 5, 3, 3, 3, 3, 3)), points9, seed=2)
        assert cert is not None and cert.valid
        assert cert.a_class == (5, 2, 2, 2, 2, 1, 1, 1, 1, 1)
        assert cert.computed.a == 5

    def test_certificate_parameterizes_E_in_its_own_order(self, points9, monkeypatch):
        # A = (E + K + L)/2 is read in E's order, so the curve the certificate
        # verifies must carry E's multiplicities at the same points
        import curvesplit.conjscan as conjscan

        results = []
        real = conjscan.parameterize

        def keeping(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(conjscan, "parameterize", keeping)
        E = DivClass(8, (1, 3, 3, 3, 3, 3, 3, 3, 1))
        cert = certify_unbalanced(E, points9, seed=2)
        [phi] = results
        assert [multiplicity_at(phi, phi.points, i) for i in range(phi.points.r)] == list(E.m)
        assert cert.a_class == (3, 0, 1, 1, 1, 1, 1, 1, 1, 0)
        assert cert.valid

    def test_odd_degree_has_none(self, points9):
        assert certify_unbalanced(DivClass(5, (2, 2, 2, 2, 2, 2, 1, 1, 0)), points9, seed=2) is None

    # at p = 1009 the first configuration drawn for this type has collinear
    # Cremona centers, so parameterize retries on fresh points; the semi-
    # adjoint has le = 2 on the rejected configuration and le = 1 on the
    # one the split comes from
    RETRIED = NumType(20, (9, 7, 7, 7, 7, 7, 5, 5, 5))
    RETRIED_SEED = mix_seed(3, 20, 9, 7, 7, 7, 7, 7, 5, 5, 5)

    def test_scan_record_certifies_on_the_points_of_its_split(self, monkeypatch):
        import curvesplit.conjscan as conjscan

        results = []
        real = conjscan.parameterize

        def keeping(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(conjscan, "parameterize", keeping)
        rec = scan_record(self.RETRIED, 3, p=1009, certify=True)
        [phi] = results
        assert rec.seed == self.RETRIED_SEED and phi.points.seed != self.RETRIED_SEED
        assert (rec.h1_a, rec.le_a) == (0, 1)
        first = random_points(9, self.RETRIED_SEED, 1009)
        assert class_cohomology(semi_adjoint(self.RETRIED.to_divclass()), first)[1:] == (0, 2)
        assert rec.split == splitting_moving_lines(phi) and rec.gap == 2

    def test_certificate_on_the_points_of_its_split(self):
        first = random_points(9, self.RETRIED_SEED, 1009)
        cert = certify_unbalanced(self.RETRIED.to_divclass(), first, self.RETRIED_SEED)
        assert (cert.h1_a, cert.le_a, cert.h0_residual) == (0, 1, 0)
        assert cert.valid


class TestSearch:
    def test_ascenzi_pencil_witness(self, points9):
        # for the unbalanced Ascenzi type, L - E_1 qualifies and attains d - m_1
        E = DivClass(4, (3, 1, 1, 1, 1, 1, 1, 1, 1))
        res = search_min_product(E, points9, dA_max=3)
        assert res is not None
        assert res.product == 1
        assert res.witness == (1, 1, 0, 0, 0, 0, 0, 0, 0, 0)

    def test_flagship_minimum(self, points9):
        E = DivClass(8, (3, 3, 3, 3, 3, 3, 3, 1, 1))
        res = search_min_product(E, points9, dA_max=5)
        assert res is not None
        assert res.product == 3
        assert res.witness == (3, 1, 1, 1, 1, 1, 1, 1, 0, 0)

    def test_compare_against_computed_a(self, points9):
        E = DivClass(8, (3, 3, 3, 3, 3, 3, 3, 1, 1))
        res = search_min_product(E, points9, dA_max=4, compare_seed=7)
        assert res is not None and res.computed_a == 3 == res.product

    def test_compare_tests_candidates_on_the_points_of_its_split(self, monkeypatch):
        # at p = 211 the parameterization of this E retries on fresh points;
        # the candidates must be tested there, not on the points handed in
        from curvesplit import conjscan

        E = DivClass(8, (3,) * 7 + (1, 1))
        points = random_points(10, 1, 211)
        phis, seen = [], []
        real_parameterize, real_cohomology = conjscan.parameterize, conjscan.class_cohomology

        def recording(*args):
            phis.append(real_parameterize(*args))
            return phis[-1]

        def spying(A, pts):
            seen.append(pts)
            return real_cohomology(A, pts)

        monkeypatch.setattr(conjscan, "parameterize", recording)
        monkeypatch.setattr(conjscan, "class_cohomology", spying)
        res = search_min_product(E, points, 4, compare_seed=1)
        [phi] = phis
        assert phi.points != points and phi.points.seed == 6725373726667935941
        assert seen and all(pts is phi.points for pts in seen)
        assert res is not None and res.computed_a == splitting_moving_lines(phi).a


class TestSpotcheck:
    def test_table_has_57_rows(self):
        assert len(R7_FAMILIES) == 57
        orbits = {f.orbit for f in R7_FAMILIES}
        assert orbits == {"E7", "H0+dH1", "H2+dH1", "2H0", "H1"}

    def test_never_ascenzi_family_gap_grows(self):
        fam = next(f for f in R7_FAMILIES if f.base == (8, 3, 3, 3, 3, 3, 3, 3))
        rows = classification7_spotcheck(fam, range(3), seed=13)
        assert [r.computed_gap for r in rows] == [2, 3, 4]
        assert all(r.ok for r in rows)

    def test_absolute_value_family(self):
        fam = next(
            f
            for f in R7_FAMILIES
            if f.base == (5, 2, 2, 2, 2, 2, 2, 0) and f.step == (5, 2, 2, 2, 2, 2, 2, 1)
        )
        rows = classification7_spotcheck(fam, range(3), seed=13)
        assert [r.computed_gap for r in rows] == [1, 0, 1]
        assert all(r.ok for r in rows)

    def test_balanced_big_member(self):
        fam = next(f for f in R7_FAMILIES if f.base == (10, 4, 4, 4, 4, 4, 4, 0))
        rows = classification7_spotcheck(fam, range(3), seed=13)
        assert len(rows) == 1
        assert rows[0].computed_gap == 0 and rows[0].ok


class TestScanDriver:
    def test_record_json_roundtrip(self):
        records, _ = scan_conjecture9(8, seed=5, certify=True)
        records.append(ScanRecord(NumType(5, (2,) * 6), False, None, None, 3, error="gave up"))
        for rec in records:
            data = rec.to_json()
            assert ScanRecord.from_json(data) == rec
            assert ScanRecord.from_json(json.loads(json.dumps(data))).to_json() == data

    def test_malformed_record_is_a_value_error(self):
        with pytest.raises(ValueError, match="malformed"):
            ScanRecord.from_json({"type": [1, 0, 0]})

    def test_resumed_records_are_reused(self):
        records, summary = scan_conjecture9(8, seed=5)
        # a marked record proves the driver took it rather than rescanning
        marked = dataclasses.replace(records[-1], error="resumed")
        again, summary2 = scan_conjecture9(8, seed=5, resumed=[marked])
        assert again[:-1] == records[:-1] and again[-1] is marked
        assert summary2["n_errors"] == 1 and summary["n_errors"] == 0

    def test_retry_path_at_a_small_prime(self, monkeypatch):
        # at p = 211 degenerate configurations are common; the retries must
        # run and still reproduce the default-modulus summary
        from curvesplit import param

        redraws = []
        real = param.random_points

        def counting(*args, **kwargs):
            redraws.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(param, "random_points", counting)
        _, small = scan_conjecture9(16, seed=7, p=211)
        monkeypatch.undo()
        assert len(redraws) == 7
        _, default = scan_conjecture9(16, seed=7)
        assert small == default

    def test_retry_attempts_are_pinned_at_a_small_prime(self, monkeypatch):
        # every attempt's outcome (success, or the degenerate configuration
        # that triggers the next, a base draw among them) is part of the
        # output at p = 211
        from curvesplit import param

        attempts, successes = [], []
        real = param._parameterize_once

        def counting(*args, **kwargs):
            attempts.append(args[0])
            res = real(*args, **kwargs)
            successes.append(res)
            return res

        monkeypatch.setattr(param, "_parameterize_once", counting)
        records, summary = scan_conjecture9(30, 2, 211)
        assert (len(attempts), len(successes), len(records), summary["n_errors"]) == (250, 185, 187, 0)
        attempts.clear()
        successes.clear()
        # list7-check --dmax-param 4 --seed 2 --p 211
        rows = [row for fam in R7_FAMILIES for row in classification7_spotcheck(fam, range(5), 2, 211)]
        assert (len(attempts), len(successes), len(rows), sum(not row.ok for row in rows)) == (213, 205, 209, 0)


class TestFaultInjection:
    """A type whose processing raises costs that type's record, not the scan."""

    BAD = NumType(5, (3, 2, 2, 2, 1, 1, 1, 1, 1))

    def _inject(self, monkeypatch, name, exc, bad):
        import curvesplit.conjscan as conjscan

        real = getattr(conjscan, name)

        def faulty(D, *args, **kwargs):
            if D == bad:
                raise exc
            return real(D, *args, **kwargs)

        monkeypatch.setattr(conjscan, name, faulty)

    @pytest.mark.parametrize(
        "exc_class", [ParameterizationError, ValueError, AssertionError], ids=lambda c: c.__name__
    )
    def test_one_error_record_and_the_scan_goes_on(self, monkeypatch, exc_class):
        clean, _ = scan_conjecture9(8, seed=5)
        self._inject(monkeypatch, "parameterize", exc_class("injected"), self.BAD)
        records, summary = scan_conjecture9(8, seed=5)
        bad = [r for r in records if r.error is not None]
        assert [r.ntype for r in bad] == [self.BAD]
        assert bad[0].error == f"{exc_class.__name__}: injected" and bad[0].split is None
        assert [r for r in records if r.ntype != self.BAD] == [r for r in clean if r.ntype != self.BAD]
        assert summary["n_errors"] == 1 and not summary["conjecture_consistent"]

    def test_retry_limit_keeps_its_message(self, monkeypatch):
        self._inject(monkeypatch, "parameterize", RetryLimitError("gave up"), self.BAD)
        records, summary = scan_conjecture9(8, seed=5)
        assert [r.error for r in records if r.error is not None] == ["gave up"]
        assert summary["n_errors"] == 1

    FLAGSHIP = NumType(8, (3, 3, 3, 3, 3, 3, 3, 1, 1))

    @pytest.mark.parametrize("name", ["class_cohomology", "parameterize"])
    def test_certified_error_record_resumes(self, monkeypatch, name):
        # a certified error record has a semi-adjoint but no h1_a, and a
        # resume under certify takes it as it is
        bad = semi_adjoint(self.FLAGSHIP.to_divclass()) if name == "class_cohomology" else self.FLAGSHIP
        self._inject(monkeypatch, name, RetryLimitError("gave up"), bad)
        records, summary = scan_conjecture9(8, seed=5, certify=True)
        [err] = [r for r in records if r.error is not None]
        assert err.ntype == self.FLAGSHIP and err.semiadjoint is not None
        assert (err.h1_a, err.le_a) == (None, None)
        again, summary2 = scan_conjecture9(8, seed=5, certify=True, resumed=[err])
        assert again == records and summary2 == summary
        assert again[records.index(err)] is err

    def test_certify_cohomology_fault_is_caught(self, monkeypatch):
        T = NumType(8, (3, 3, 3, 3, 3, 3, 3, 1, 1))
        A = semi_adjoint(T.to_divclass())
        self._inject(monkeypatch, "class_cohomology", ValueError("injected"), A)
        records, summary = scan_conjecture9(8, seed=5, certify=True)
        bad = [r for r in records if r.error is not None]
        assert [r.ntype for r in bad] == [T]
        assert bad[0].error == "ValueError: injected"
        assert (bad[0].h1_a, bad[0].le_a, bad[0].split) == (None, None, None)
        assert summary["n_types"] == 15 and summary["n_errors"] == 1


def test_a_family_without_a_parameter_refuses_a_member_past_0():
    with pytest.raises(ValueError, match=r"^E7:\(0, 0, 0, 0, 0, 0, 0, -1\) has no parameter$"):
        R7_FAMILIES[0].member(1)
