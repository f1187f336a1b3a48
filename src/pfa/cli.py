"""Command-line harness.

Subcommands: gen-exemplars, synth-scenes, refine, eval. Exit codes:
0 success, 2 configuration/validation error, 3 I/O error, 4 configuration
mismatch between artifacts (e.g. exemplar set vs. manifest mesh, or
manifest vs. config target camera).
Each flag's ``dest`` is the config field it sets (--flow-dir also sets the
flow source). Precedence: flag, config-file key, noise preset, default.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ArtifactMismatchError, ConfigurationError, PfaError
from .exemplars import generate_exemplar_set, save_set
from .mesh import load_mesh
from .metrics import DEFAULT_AUC_THRESHOLD
from .pipeline import (
    CONFIG_JSON_PATHS,
    ExperimentConfig,
    SCHEMA_VERSION,
    check_flow_directory,
    evaluate_records,
    load_config,
    load_manifest,
    load_records_documents,
    resolve_exemplar_set,
    run_refinement,
    summarize_records,
    synth_scene_manifest,
    write_json,
    write_report_csv,
    write_table_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_MISMATCH = 4


def worker_count() -> int:
    """Trial-level parallelism: the PFA_THREADS env var, a positive integer (default 1)."""
    raw = os.environ.get("PFA_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0  # refused below, as a count below 1 is
    if count < 1:
        raise ConfigurationError(f"PFA_THREADS must be a positive integer, got {raw!r}")
    return count


def _config_from_args(args) -> ExperimentConfig:
    """The config file's settings (or the defaults), with every flag given on top."""
    flags = {k: v for k, v in vars(args).items() if k in CONFIG_JSON_PATHS and v is not None}
    if "flow_directory" in flags:  # a flow directory is read instead of the oracle
        flags["flow_source"] = "files"
    config = replace(load_config(args.config) if args.config else ExperimentConfig(), **flags)
    if not config.mesh_path:
        raise ConfigurationError("a mesh path is required (--mesh or config file)")
    return config


def cmd_gen_exemplars(args) -> int:
    config = _config_from_args(args)
    mesh = load_mesh(config.mesh_path)
    exemplar_set = generate_exemplar_set(
        mesh, config.gen_count, config.gen_z_bar, config.exemplar_camera,
        config.gen_seed, config.gen_name,
    )
    save_set(exemplar_set, args.out)
    size = Path(args.out).stat().st_size
    print(f"wrote {len(exemplar_set)} exemplars (z_bar={exemplar_set.z_bar}) "
          f"to {args.out} ({size} bytes)")
    return EXIT_OK


def cmd_synth_scenes(args) -> int:
    config = _config_from_args(args)
    mesh = load_mesh(config.mesh_path)
    manifest = synth_scene_manifest(config, mesh)
    write_json(manifest, args.out)
    print(f"wrote manifest with {len(manifest['trials'])} trials to {args.out}")
    return EXIT_OK


def cmd_refine(args) -> int:
    workers = worker_count()  # before any work, so a refused count costs none
    config = _config_from_args(args)
    mesh = load_mesh(config.mesh_path)
    manifest = load_manifest(args.manifest, config, mesh)
    check_flow_directory(config)
    exemplar_set = resolve_exemplar_set(config, mesh)  # after the checks: it may be generated
    # made before the first trial, so an output that cannot be made costs no trial
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if config.dump_flow_dir:
        Path(config.dump_flow_dir).mkdir(parents=True, exist_ok=True)
    records = run_refinement(config, mesh, exemplar_set, manifest, workers)
    write_json(records, out / "records.json")
    summary = summarize_records(records)
    write_json(summary, out / "report.json")
    write_report_csv(summary, out / "report.csv")
    refined = summary["refined"]
    print(
        f"{summary['trials']} trials, N={summary['n_exemplars']}: "
        f"refined add_01d={refined['add_01d']:.4f} "
        f"auc_add={refined['auc_add']:.4f} failures={refined['failure_count']}"
    )
    print(f"wrote {out / 'records.json'}, {out / 'report.json'}, {out / 'report.csv'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    documents = load_records_documents(args.records)
    table, curves = evaluate_records(documents)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json({"schema_version": SCHEMA_VERSION, "rows": table}, out / "metrics.json")
    write_table_csv(table, out / "metrics.csv")
    write_table_csv(curves, out / "curves.csv")
    print(f"evaluated {len(documents)} record sets (AUC up to {DEFAULT_AUC_THRESHOLD} mesh "
          f"units); wrote metrics and curves to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfa", description="Exemplar-based 6D pose refinement harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-exemplars", help="render an exemplar set offline")
    gen.add_argument("--config", help="experiment config JSON")
    gen.add_argument("--mesh", dest="mesh_path", metavar="MESH", help="mesh file (PLY or OBJ)")
    gen.add_argument("--count", dest="gen_count", metavar="COUNT", type=int,
                     help="number of exemplars")
    gen.add_argument("--zbar", dest="gen_z_bar", metavar="ZBAR", type=float,
                     help="fixed exemplar depth in meters")
    gen.add_argument("--seed", dest="gen_seed", metavar="SEED", type=int,
                     help="rotation sampling seed")
    gen.add_argument("--name", dest="gen_name", metavar="NAME",
                     help="object name stored in the set")
    gen.add_argument("--out", required=True, help="output .pfax path")
    gen.set_defaults(func=cmd_gen_exemplars)

    synth = sub.add_parser("synth-scenes", help="sample ground-truth scenes and jittered initial poses")
    synth.add_argument("--config", help="experiment config JSON")
    synth.add_argument("--mesh", dest="mesh_path", metavar="MESH", help="mesh file (PLY or OBJ)")
    synth.add_argument("--trials", type=int, help="number of trials")
    synth.add_argument("--seed", type=int, help="master seed")
    synth.add_argument("--out", required=True, help="output manifest JSON path")
    synth.set_defaults(func=cmd_synth_scenes)

    refine = sub.add_parser("refine", help="run refinement over a scene manifest")
    refine.add_argument("--config", help="experiment config JSON")
    refine.add_argument("--manifest", required=True, help="scene manifest JSON")
    refine.add_argument("--out", required=True, help="output directory")
    refine.add_argument("--mesh", dest="mesh_path", metavar="MESH", help="mesh file override")
    refine.add_argument("--exemplars", dest="exemplar_path", metavar="EXEMPLARS",
                        help="exemplar set (.pfax) override")
    refine.add_argument("--n-exemplars", type=int, help="exemplars aggregated per trial")
    refine.add_argument("--seed", type=int, help="master seed override")
    refine.add_argument("--label", help="label stored in records and reports")
    refine.add_argument("--flow-dir", dest="flow_directory", metavar="FLOW_DIR",
                        help="read flow from this directory instead of the oracle")
    refine.add_argument("--dump-flows", dest="dump_flow_dir", metavar="DUMP_FLOWS",
                        help="write every computed flow field to this directory")
    refine.set_defaults(func=cmd_refine)

    ev = sub.add_parser("eval", help="aggregate records into metric tables and curves")
    ev.add_argument("--records", required=True, help="records file or directory")
    ev.add_argument("--out", required=True, help="output directory")
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PfaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH if isinstance(exc, ArtifactMismatchError) else EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
