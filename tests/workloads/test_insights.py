"""Tests for workload classification."""

from repro.workloads.cloudsuite import cloudsuite_apps
from repro.workloads.insights import ResourceClass, classify
from repro.workloads.spec import SPEC_CPU2006


class TestClassify:
    def test_known_archetypes(self):
        assert classify(SPEC_CPU2006["444.namd"]) is ResourceClass.FP_COMPUTE
        assert classify(SPEC_CPU2006["456.hmmer"]) is \
            ResourceClass.INT_COMPUTE
        assert classify(SPEC_CPU2006["470.lbm"]) is \
            ResourceClass.DRAM_STREAMING
        assert classify(SPEC_CPU2006["429.mcf"]) is \
            ResourceClass.DRAM_LATENCY

    def test_cloudsuite_is_llc_heavy(self):
        # CloudSuite working sets are sized for the Sandy Bridge-EN's
        # 15 MB LLC (the machine they run on in the paper).
        for workload in cloudsuite_apps():
            assert classify(workload.profile,
                            llc_bytes=15 * 1024 * 1024) is \
                ResourceClass.LLC_HEAVY

    def test_population_covers_all_classes(self):
        """The synthetic SPEC population must span the paper's archetypes."""
        classes = {classify(p) for p in SPEC_CPU2006.values()}
        for needed in (ResourceClass.FP_COMPUTE, ResourceClass.INT_COMPUTE,
                       ResourceClass.DRAM_STREAMING,
                       ResourceClass.DRAM_LATENCY):
            assert needed in classes

    def test_thresholds_are_parameters(self):
        lbm = SPEC_CPU2006["470.lbm"]
        # With an absurdly large LLC, the streamer becomes LLC-resident.
        assert classify(lbm, llc_bytes=1 << 40) is not \
            ResourceClass.DRAM_STREAMING

