"""Command-line harness.

Subcommands: gen-exemplars, synth-scenes, refine, eval. Exit codes:
0 success, 2 configuration/validation error, 3 I/O error, 4 configuration
mismatch between artifacts (e.g. exemplar set vs. manifest mesh, or
manifest vs. config target camera).
Every flag has a config-file equivalent; flags override file values.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ArtifactMismatchError, ConfigurationError, PfaError, naming_file
from .exemplars import generate_exemplar_set, save_set
from .mesh import load_mesh
from .pipeline import (
    ExperimentConfig,
    SCHEMA_VERSION,
    check_manifest,
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


def _config_from_args(args, overrides: dict) -> ExperimentConfig:
    if getattr(args, "config", None):
        config = load_config(args.config, overrides)
    else:
        config = ExperimentConfig(**{k: v for k, v in overrides.items() if v is not None})
    if not config.mesh_path:
        raise ConfigurationError("a mesh path is required (--mesh or config file)")
    return config


def cmd_gen_exemplars(args) -> int:
    overrides = {
        "mesh_path": args.mesh,
        "gen_count": args.count,
        "gen_z_bar": args.zbar,
        "gen_seed": args.seed,
        "gen_name": args.name,
    }
    config = _config_from_args(args, overrides)
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
    overrides = {"mesh_path": args.mesh, "trials": args.trials, "seed": args.seed}
    config = _config_from_args(args, overrides)
    mesh = load_mesh(config.mesh_path)
    manifest = synth_scene_manifest(config, mesh)
    write_json(manifest, args.out)
    print(f"wrote manifest with {len(manifest['trials'])} trials to {args.out}")
    return EXIT_OK


def cmd_refine(args) -> int:
    overrides = {
        "mesh_path": args.mesh,
        "n_exemplars": args.n_exemplars,
        "seed": args.seed,
        "label": args.label,
        "exemplar_path": args.exemplars,
        "flow_directory": args.flow_dir,
        "dump_flow_dir": args.dump_flows,
    }
    if args.flow_dir:
        overrides["flow_source"] = "files"
    config = _config_from_args(args, overrides)
    manifest = load_manifest(args.manifest)
    mesh = load_mesh(config.mesh_path)
    with naming_file(args.manifest):
        check_manifest(config, mesh, manifest)  # before the set, which may be generated
    exemplar_set = resolve_exemplar_set(config, mesh)
    records = run_refinement(config, mesh, exemplar_set, manifest)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
    print(f"evaluated {len(documents)} record sets; wrote metrics and curves to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfa", description="Exemplar-based 6D pose refinement harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-exemplars", help="render an exemplar set offline")
    gen.add_argument("--config", help="experiment config JSON")
    gen.add_argument("--mesh", help="mesh file (PLY or OBJ)")
    gen.add_argument("--count", type=int, help="number of exemplars")
    gen.add_argument("--zbar", type=float, help="fixed exemplar depth in meters")
    gen.add_argument("--seed", type=int, help="rotation sampling seed")
    gen.add_argument("--name", help="object name stored in the set")
    gen.add_argument("--out", required=True, help="output .pfax path")
    gen.set_defaults(func=cmd_gen_exemplars)

    synth = sub.add_parser("synth-scenes", help="sample ground-truth scenes and jittered initial poses")
    synth.add_argument("--config", help="experiment config JSON")
    synth.add_argument("--mesh", help="mesh file (PLY or OBJ)")
    synth.add_argument("--trials", type=int, help="number of trials")
    synth.add_argument("--seed", type=int, help="master seed")
    synth.add_argument("--out", required=True, help="output manifest JSON path")
    synth.set_defaults(func=cmd_synth_scenes)

    refine = sub.add_parser("refine", help="run refinement over a scene manifest")
    refine.add_argument("--config", help="experiment config JSON")
    refine.add_argument("--manifest", required=True, help="scene manifest JSON")
    refine.add_argument("--out", required=True, help="output directory")
    refine.add_argument("--mesh", help="mesh file override")
    refine.add_argument("--exemplars", help="exemplar set (.pfax) override")
    refine.add_argument("--n-exemplars", dest="n_exemplars", type=int,
                        help="exemplars aggregated per trial")
    refine.add_argument("--seed", type=int, help="master seed override")
    refine.add_argument("--label", help="label stored in records and reports")
    refine.add_argument("--flow-dir", dest="flow_dir",
                        help="read flow from this directory instead of the oracle")
    refine.add_argument("--dump-flows", dest="dump_flows",
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
    except ArtifactMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except PfaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
