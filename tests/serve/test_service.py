"""Unit tests for the prediction service, its LRU, and admission control."""

import pytest

from repro.core.predictor import SMiTe
from repro.errors import ConfigurationError, SchedulingError
from repro.obs import snapshot
from repro.scheduler.qos import QosTarget
from repro.serve.service import (
    AdmissionControl,
    BaselineDecider,
    PredictionService,
    RandomDecider,
)
from repro.workloads.cloudsuite import cloudsuite_apps
from repro.workloads.spec import spec_even, spec_odd


@pytest.fixture(scope="module")
def predictor(snb_sim):
    return SMiTe(snb_sim).fit(spec_odd()[:4], mode="smt")


@pytest.fixture(scope="module")
def app():
    return cloudsuite_apps()[0]


@pytest.fixture(scope="module")
def batch():
    return spec_even()[:3]


def _counters():
    return snapshot()["counters"]


class TestSimpleDeciders:
    def test_baseline_never_colocates(self, app, batch):
        decision = BaselineDecider().decide(app, batch[0], max_instances=6)
        assert decision.max_safe_instances == 0
        assert not decision.shed

    def test_random_is_seeded_and_bounded(self, app, batch):
        a = RandomDecider(seed=3)
        b = RandomDecider(seed=3)
        counts_a = [a.decide(app, p, max_instances=6).max_safe_instances
                    for p in batch * 4]
        counts_b = [b.decide(app, p, max_instances=6).max_safe_instances
                    for p in batch * 4]
        assert counts_a == counts_b
        assert all(0 <= c <= 6 for c in counts_a)

    def test_accounting_invariant(self, app, batch):
        before = _counters()
        decider = BaselineDecider()
        for _ in range(5):
            decider.decide(app, batch[0], max_instances=6)
        after = _counters()
        delta = lambda name: (after.get(name, 0) - before.get(name, 0))
        assert delta("serve.service.requests") == 5
        assert (delta("serve.service.decisions")
                + delta("serve.service.sheds")) == 5


class TestPredictionService:
    def test_needs_fitted_predictor(self, snb_sim):
        with pytest.raises(SchedulingError):
            PredictionService(SMiTe(snb_sim), QosTarget.average(0.95))

    def test_tail_target_needs_tail_models(self, predictor):
        with pytest.raises(SchedulingError):
            PredictionService(predictor, QosTarget.tail(0.95))

    def test_bad_lru_capacity_rejected(self, predictor):
        with pytest.raises(ConfigurationError):
            PredictionService(predictor, QosTarget.average(0.95),
                              lru_capacity=0)

    def test_second_ask_hits_the_lru(self, predictor, app, batch):
        service = PredictionService(predictor, QosTarget.average(0.90))
        first = service.decide(app, batch[0], max_instances=6)
        second = service.decide(app, batch[0], max_instances=6)
        assert not first.cached
        assert second.cached
        assert second.max_safe_instances == first.max_safe_instances
        assert service.cache_len == 1

    def test_lru_evicts_oldest(self, predictor, app, batch):
        service = PredictionService(predictor, QosTarget.average(0.90),
                                    lru_capacity=1)
        service.decide(app, batch[0], max_instances=6)
        service.decide(app, batch[1], max_instances=6)
        assert service.cache_len == 1
        # batch[0] was evicted: asking again misses.
        again = service.decide(app, batch[0], max_instances=6)
        assert not again.cached

    def test_matches_policy_semantics(self, predictor, app, batch):
        # The cached answer must equal the offline SMiTePolicy loop.
        target = QosTarget.average(0.90)
        service = PredictionService(predictor, target)
        budget = target.degradation_budget()
        expected = 0
        for instances in range(6, 0, -1):
            predicted = predictor.predict_server(
                app.profile, batch[0], instances=instances)
            if predicted <= budget:
                expected = instances
                break
        decision = service.decide(app, batch[0], max_instances=6)
        assert decision.max_safe_instances == expected

    def test_budget_exhaustion_sheds(self, predictor, app, batch):
        admission = AdmissionControl(budget_ms_per_epoch=15.0,
                                     hit_cost_ms=0.1, miss_cost_ms=10.0)
        service = PredictionService(predictor, QosTarget.average(0.90),
                                    admission=admission)
        first = service.decide(app, batch[0], max_instances=6)   # 10ms
        second = service.decide(app, batch[1], max_instances=6)  # over
        third = service.decide(app, batch[0], max_instances=6)   # hit fits
        assert not first.shed
        assert second.shed
        assert second.max_safe_instances == 0
        assert not third.shed and third.cached

    def test_begin_epoch_resets_budget(self, predictor, app, batch):
        admission = AdmissionControl(budget_ms_per_epoch=15.0,
                                     hit_cost_ms=0.1, miss_cost_ms=10.0)
        service = PredictionService(predictor, QosTarget.average(0.90),
                                    admission=admission)
        service.decide(app, batch[0], max_instances=6)
        assert service.decide(app, batch[1], max_instances=6).shed
        service.begin_epoch([(app, batch[1], 6)])
        assert not service.decide(app, batch[1], max_instances=6).shed

    def test_begin_epoch_prefetch_matches_decide(self, app):
        # After the epoch hook, every affordable miss's solves are in the
        # simulator memo: deciding adds no new fixed-point solves. A
        # private simulator keeps the memo cold up to this point.
        from repro.smt.params import SANDY_BRIDGE_EN
        from repro.smt.simulator import Simulator

        predictor = SMiTe(Simulator(SANDY_BRIDGE_EN)).fit(
            spec_odd()[:4], mode="smt")
        service = PredictionService(predictor, QosTarget.average(0.90))
        candidates = [(app, p, 6) for p in spec_even()[3:5]]
        service.begin_epoch(candidates)
        before = _counters().get("smt.solver.solves", 0)
        before_batch = _counters().get("smt.batch.problems", 0)
        for latency_app, profile, max_instances in candidates:
            service.decide(latency_app, profile,
                           max_instances=max_instances)
        after = _counters().get("smt.solver.solves", 0)
        after_batch = _counters().get("smt.batch.problems", 0)
        assert after == before
        assert after_batch == before_batch

    def test_bad_admission_config_rejected(self):
        with pytest.raises(ConfigurationError):
            AdmissionControl(budget_ms_per_epoch=0.0)
        with pytest.raises(ConfigurationError):
            AdmissionControl(hit_cost_ms=5.0, miss_cost_ms=1.0)


class TestBatchEquivalence:
    """Columnar decide paths must replay the scalar cost model exactly."""

    def _batches(self, apps, pool, plan, max_instances=2):
        import numpy as np

        from repro.serve.service import CandidateBatch

        return [
            CandidateBatch(
                apps, pool,
                np.array([a for a, _p in epoch], dtype=np.intp),
                np.array([p for _a, p in epoch], dtype=np.intp),
                max_instances,
            )
            for epoch in plan
        ]

    def _drive(self, service, batches, columnar):
        decisions = []
        for batch in batches:
            if columnar:
                service.begin_epoch_batch(batch)
                out = service.decide_batch(batch)
                decisions.extend(zip(
                    out.max_safe_instances.tolist(),
                    out.shed.tolist(), out.cached.tolist(),
                ))
            else:
                service.begin_epoch(list(batch))
                for app, profile, n in batch:
                    d = service.decide(app, profile, max_instances=n)
                    decisions.append(
                        (d.max_safe_instances, d.shed, d.cached))
        return decisions

    MIXED_PLAN = [
        [(0, 0), (1, 1), (0, 0), (0, 2)],
        [(0, 0), (0, 0), (1, 1)],
        [],
        [(1, 2), (0, 1), (1, 2), (0, 1), (1, 0), (0, 0), (1, 1)],
        [(0, 0), (1, 1), (0, 2), (1, 0)],
    ]
    #: Runs of all-hit epochs with repeated pairs, an empty epoch inside
    #: a run, and a miss that breaks the run.
    HIT_RUN_PLAN = [
        [(0, 0), (1, 1)],
        [(0, 0), (0, 0), (1, 1), (1, 1)],
        [],
        [(0, 0), (1, 1), (0, 2)],
        [(0, 2), (1, 1), (0, 0), (0, 2)],
        [(1, 1), (1, 1)],
    ]

    @pytest.mark.parametrize("lru_capacity,budget,plan", [
        # all-hit bulk epochs and epochs with misses
        pytest.param(512, 50.0, MIXED_PLAN, id="512-50.0"),
        # misses that evict
        pytest.param(3, 50.0, MIXED_PLAN, id="3-50.0"),
        # budget exhaustion sheds mid-epoch
        pytest.param(512, 0.3, MIXED_PLAN, id="512-0.3"),
        pytest.param(512, 50.0, HIT_RUN_PLAN, id="hit-runs"),
    ])
    def test_decide_batch_equals_decide_loop(self, predictor, lru_capacity,
                                             budget, plan):
        apps = cloudsuite_apps()[:2]
        pool = spec_even()[:3]
        admission = AdmissionControl(budget_ms_per_epoch=budget,
                                     hit_cost_ms=0.05, miss_cost_ms=0.1)
        services = [
            PredictionService(predictor, QosTarget.average(0.90),
                              admission=admission,
                              lru_capacity=lru_capacity)
            for _ in range(2)
        ]
        batches = self._batches(apps, pool, plan)
        scalar = self._drive(services[0], batches, columnar=False)
        columnar = self._drive(services[1], batches, columnar=True)
        assert columnar == scalar
        assert list(services[0]._lru.items()) == \
            list(services[1]._lru.items())


class TestDecideCached:
    """The memory-only epoch path must equal begin_epoch + decide."""

    ADMISSION = AdmissionControl(budget_ms_per_epoch=0.3,
                                 hit_cost_ms=0.05, miss_cost_ms=0.1)

    def _twins(self, predictor, candidates):
        """Two services whose LRUs both hold every candidate's key."""
        services = []
        for _ in range(2):
            service = PredictionService(predictor, QosTarget.average(0.90),
                                        admission=self.ADMISSION)
            for app, profile, n in candidates:
                service.begin_epoch([(app, profile, n)])
                service.decide(app, profile, max_instances=n)
            services.append(service)
        return services

    @staticmethod
    def _service_counters():
        return {name: value for name, value in _counters().items()
                if name.startswith("serve.service.")}

    def _delta(self, action):
        before = self._service_counters()
        result = action()
        after = self._service_counters()
        names = set(before) | set(after)
        return result, {name: after.get(name, 0) - before.get(name, 0)
                        for name in names
                        if after.get(name, 0) != before.get(name, 0)}

    def _sequential(self, service, epoch):
        service.begin_epoch(epoch)
        return [service.decide(app, profile, max_instances=n)
                for app, profile, n in epoch]

    def test_all_hit_epochs_match_sequential_decide(self, predictor):
        apps = cloudsuite_apps()[:2]
        pool = spec_even()[:3]
        keys = [(a, p, 2) for a in apps for p in pool]
        cached, sequential = self._twins(predictor, keys)
        epochs = [
            [keys[0], keys[0], keys[3]],
            [keys[5], keys[1], keys[5], keys[1], keys[0]],
            [keys[2]],
            [keys[4], keys[4], keys[4], keys[3]],
        ]
        for epoch in epochs:
            got, got_delta = self._delta(lambda: cached.decide_cached(epoch))
            want, want_delta = self._delta(
                lambda: self._sequential(sequential, epoch))
            assert got == want
            assert all(d.cached and not d.shed for d in got)
            assert got_delta == want_delta
            assert got_delta["serve.service.cache_hits"] == len(epoch)
            assert list(cached._lru.items()) == \
                list(sequential._lru.items())

    def _assert_declines_untouched(self, service, epoch):
        lru = list(service._lru.items())
        budget = service._epoch_remaining_ms
        result, delta = self._delta(lambda: service.decide_cached(epoch))
        assert result is None
        assert delta == {}
        assert list(service._lru.items()) == lru
        assert service._epoch_remaining_ms == budget

    def test_one_miss_declines_without_touching_state(self, predictor):
        apps = cloudsuite_apps()[:2]
        pool = spec_even()[:3]
        warm = [(apps[0], p, 2) for p in pool]
        service, _ = self._twins(predictor, warm)
        # A spent budget shows decide_cached did not reset it.
        service.decide(*warm[0][:2], max_instances=2)
        assert service._epoch_remaining_ms < self.ADMISSION.budget_ms_per_epoch
        self._assert_declines_untouched(
            service, [warm[0], warm[1], (apps[1], pool[0], 2), warm[2]])

    def test_unaffordable_all_hit_epoch_declines(self, predictor):
        app = cloudsuite_apps()[0]
        warm = [(app, p, 2) for p in spec_even()[:2]]
        service, sequential = self._twins(predictor, warm)
        # More hits than budget / hit cost: the sequential loop sheds.
        n = round(self.ADMISSION.budget_ms_per_epoch
                  / self.ADMISSION.hit_cost_ms) + 1
        epoch = [warm[i % 2] for i in range(n)]
        assert any(d.shed for d in self._sequential(sequential, epoch))
        self._assert_declines_untouched(service, epoch)

    def test_simple_deciders_decline(self, app, batch):
        for decider in (BaselineDecider(), RandomDecider(seed=1)):
            assert decider.decide_cached([(app, batch[0], 6)]) is None
