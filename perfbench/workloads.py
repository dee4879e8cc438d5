"""The benchmark's workloads: one ``run_experiment`` manifest each, and why.

Every workload is a full experiment (world build, act generation, encoding,
online SGD, threshold tuning for the pipeline, evaluation, report and
checkpoint writing) driven by ``popref.harness.run_experiment``.  The
workload seed goes into ``world.seed``, ``data.seed`` and ``train.seed``, so
one seed fixes every input.

Split sizes are the sizes first profiled (``full_sizes``: a 14-16 s pop
run, a 17-21 s trpop run and a 6.5 s pipeline run) scaled down uniformly
(``scale``), so that one 40 s run holds 8-27 experiments and can take
each part of the work at its fastest.  Scaling every split by the same
factor keeps each workload's stage shares, which ``shares`` records
(measured at the scaled size, as a share of the experiment process's wall
time).
"""

from dataclasses import dataclass, field

# A gain claimed from the benchmark must also hold on this seed, which no
# change should be tuned on (see README.md, "Claiming a gain").
HELD_OUT_SEED = 7919


@dataclass(frozen=True)
class Workload:
    name: str
    settings: dict[str, str]
    full_sizes: tuple[int, int, int]  # n_train, n_val, n_test as first profiled
    scale: float
    why: str
    isolates: str
    shares: dict[str, str] = field(default_factory=dict)
    unscaled: tuple[str, ...] = ()  # split keys kept at their full size

    @property
    def manifest(self) -> dict[str, str]:
        split_keys = ("data.n_train", "data.n_val", "data.n_test")
        sizes = {
            key: n if key in self.unscaled else max(1, round(n * self.scale))
            for key, n in zip(split_keys, self.full_sizes)
        }
        return {**self.settings, **{k: str(n) for k, n in sizes.items()}}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pop-objonly",
            settings={"task": "object-only", "model": "pop"},
            full_sizes=(4000, 500, 20000),
            scale=1 / 6,
            why="dense-input online SGD of the pointing network (dense 32->64), "
                "plus a large test split for a second-scale prediction stage",
            isolates="pop_model forward/backward inside training.train; "
                     "pop_model.predict inside harness.evaluate. Query inputs "
                     "are dense, so a sparse-update change should show nothing "
                     "here",
            shares={"train": "about 67%", "evaluate": "about 7%",
                    "setup": "about 23%"},
        ),
        Workload(
            name="trpop-objonly",
            settings={"task": "object-only", "model": "trpop"},
            full_sizes=(1000, 500, 2000),
            scale=1 / 4,
            why="one-hot online SGD (one-hot 200->64): 0.5% of the 300x200 "
                "query-map gradient columns are nonzero, yet the momentum "
                "update is dense",
            isolates="training.train's dense momentum update (train self "
                     "time) and checkpoint writing of the 300x200 query map",
            shares={"train": "about 80%", "setup": "about 14%",
                    "evaluate": "about 3%"},
            # At 1/4 the evaluate stage (500 acts, about 25 ms) was too short
            # to time steadily: eval_acts_per_s spread by 0.10-0.16 over ten
            # seeds.  At 2000 acts it is still a small stage.
            unscaled=("data.n_test",),
        ),
        Workload(
            name="pipeline-attr",
            settings={"task": "object-attr", "model": "pipeline",
                      "data.max_len": "7"},
            full_sizes=(500, 10000, 20000),
            scale=1 / 6,
            why="setup (generation and encoding of attribute acts) and "
                "read-only pipeline inference dominate; the training step "
                "barely matters and peak memory is highest",
            isolates="datagen and embeddings (setup_s), pipeline_model "
                     "similarity_profile via tune_thresholds and evaluate",
            shares={"setup": "about 50%", "tune+evaluate": "about 17%",
                    "train": "about 25%"},
        ),
    )
}

# Toy sizes for the self-test: every stage runs, in well under a second.
TOY_SIZES = {
    "data.n_train": "30",
    "data.n_val": "20",
    "data.n_test": "30",
    "train.epochs": "1",
}


def manifest_for(name: str, seed: int, toy: bool = False) -> dict[str, str]:
    """The manifest one experiment of workload ``name`` runs at ``seed``."""
    manifest = dict(WORKLOADS[name].manifest)
    if toy:
        manifest.update(TOY_SIZES)
    for key in ("world.seed", "data.seed", "train.seed"):
        manifest[key] = str(seed)
    return manifest
