"""CE model registry: the extensible candidate set."""

from __future__ import annotations

import pytest

from repro.ce import registry
from repro.ce.base import CEModel


class TestRegistry:
    def test_seven_candidates(self):
        assert len([m for m in registry.CANDIDATE_MODELS
                    if m in ("BayesCard", "DeepDB", "NeuroCard", "MSCN",
                             "LW-NN", "LW-XGB", "UAE")]) == 7

    def test_family_partition(self):
        families = (set(registry.QUERY_DRIVEN_MODELS)
                    | set(registry.DATA_DRIVEN_MODELS)
                    | set(registry.HYBRID_MODELS))
        assert families == {"BayesCard", "DeepDB", "NeuroCard", "MSCN",
                            "LW-NN", "LW-XGB", "UAE"}

    def test_build_model(self):
        model = registry.build_model("MSCN")
        assert model.name == "MSCN"

    def test_build_unknown_raises(self):
        with pytest.raises(KeyError):
            registry.build_model("NotAModel")

    def test_every_candidate_builds_by_name(self):
        for name in registry.CANDIDATE_MODELS:
            assert registry.build_model(name).name == name

    def test_register_custom_model(self):
        class MyCE(CEModel):
            name = "MyCE"

            def fit(self, ctx):
                pass

            def estimate(self, query):
                return 1.0

        registry.register("MyCE", MyCE)
        try:
            assert "MyCE" in registry.available_models()
            assert isinstance(registry.build_model("MyCE"), MyCE)
            assert "MyCE" in registry.CANDIDATE_MODELS
        finally:
            registry.CANDIDATE_MODELS.remove("MyCE")
            del registry._REGISTRY["MyCE"]

    def test_register_non_cemodel_rejected(self):
        with pytest.raises(TypeError):
            registry.register("Bogus", dict)

    def test_postgres_available_but_not_candidate(self):
        assert "Postgres" in registry.available_models()
        assert "Postgres" not in registry.CANDIDATE_MODELS
