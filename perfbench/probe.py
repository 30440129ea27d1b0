"""Set-up and memory probe: a fresh process that imports the program,
builds one workload's learner, prints ``ready``, runs the workload's first
steps and prints its peak RSS in KiB.

``run.py`` times each probe from spawn to ``ready``, so ``setup_s``
covers interpreter start, imports and learner construction, and none of
the benchmark's own input generation.  For the CLI workload the probe
runs ``fairforest run`` itself and is ready once the CLI has built its
learner, so argument parsing and schema inference count too.  The peak
RSS is that of a process that runs nothing but the workload.

    python3 perfbench/probe.py <workload> <seed> <quick 0|1> [<csv> <out dir>]
"""

from __future__ import annotations

import resource
import sys
from pathlib import Path

from workloads import cli_argv, learner_config, spec, synthetic

SRC = Path(__file__).resolve().parent.parent / "src"


def ready() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def main(argv: list[str]) -> int:
    name, seed = argv[0], int(argv[1])
    settings = spec(name, quick=argv[2] == "1")
    sys.path.insert(0, str(SRC))
    if settings["kind"] == "cli":
        import fairforest.cli as cli  # what `fairforest` runs

        build = getattr(cli, "_build_learner", None)
        if build is None:  # the CLI was reorganised: ready at entry instead
            ready()
        else:
            def build_then_ready(*args, **kwargs):
                built = build(*args, **kwargs)
                ready()
                return built

            cli._build_learner = build_then_ready
        code = cli.main(cli_argv(settings, argv[3], argv[4], seed))
        if code != 0:
            return code
    else:
        from fairforest.baselines import make_learner
        from fairforest.learner import LearnerConfig

        learner = make_learner(settings["baseline"],
                               LearnerConfig(**learner_config(settings, seed)))
        ready()
        for x, y, a in synthetic(settings["probe_steps"], seed):
            learner.step(x, y, a)
    sys.stdout.write(f"{peak_rss_kib()}\n")
    return 0


def peak_rss_kib() -> int:
    """Peak RSS of this process image, in KiB.

    ``VmHWM`` where the kernel has it: Linux carries ``ru_maxrss`` across
    ``exec``, so for a spawned child it also counts the parent's peak.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
