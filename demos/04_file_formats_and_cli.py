"""Write a dataset to disk and drive the same pipeline through the CLI.

Shows the three text formats (edge list, label file, view manifest), the
per-view statistics table, and the CLI subcommands that chain them:
synth -> stats -> embed -> eval. Every subcommand is deterministic given
identical flags; reruns produce byte-identical files.
"""

import pathlib
import tempfile

import mvne
from mvne.cli import main as cli

with tempfile.TemporaryDirectory(prefix="mvne_demo_") as tmp:
    workdir = pathlib.Path(tmp)
    data = workdir / "data"

    spec = mvne.SbmSpec(n=120, communities=3, p_in=0.35, p_out=0.02,
                        views=2, keep=0.7, noise=0.1, seed=5)
    graph, labels = mvne.generate_multiview_sbm(spec)
    manifest = mvne.dump_dataset(graph, labels, data)

    print("dataset files:")
    for p in sorted(data.iterdir()):
        print(f"  {p.name}")
    print("\nedge-list head (src<TAB>dst[<TAB>weight]):")
    print("  " + "\n  ".join((data / "view0.edges").read_text().splitlines()[:3]))
    print("\nlabel-file head (node<TAB>comma-separated labels):")
    print("  " + "\n  ".join((data / "labels.tsv").read_text().splitlines()[:3]))
    print("\nmanifest (view_name<TAB>path):")
    print("  " + "\n  ".join((data / "views.manifest").read_text().splitlines()))

    print("\n$ mvne stats --manifest views.manifest")
    cli(["stats", "--manifest", str(manifest)])

    emb = workdir / "embedding.txt"
    meta = workdir / "meta.json"
    print("\n$ mvne embed --manifest views.manifest -d 6 --seed 42 ...")
    cli(["embed", "--manifest", str(manifest), "-d", "6", "--seed", "42",
         "--out", str(emb), "--meta", str(meta)])

    print("\n$ mvne eval --embedding embedding.txt --labels labels.tsv --fractions 0.5 ...")
    cli(["eval", "--embedding", str(emb), "--labels", str(data / "labels.tsv"),
         "--fractions", "0.5", "--repeats", "5",
         "--json", str(workdir / "report.json"), "--tsv", str(workdir / "report.tsv")])

    print(f"\nall artifacts under {workdir} (removed when the demo exits)")
