"""mvne: sparse-graph node embeddings from shared-community factorization.

Single-view embeddings come from factorizing one adjacency; multi-view
embeddings share one factorization across a weighted combination of views.
Includes a node-label-prediction evaluation harness and a synthetic
multi-view generator for verification at desk scale.
"""

__version__ = "0.1.0"

from .evaluate import (EvalProtocol, EvalReport, macro_f1, micro_f1,
                       predict_multilabel, run_protocol, split_labeled,
                       train_ovr)
from .factorize import (Factorization, FactorizeConfig, embedding, factorize,
                        init_factorization, kl_objective, update_step)
from .graph import (LabelStore, MultiViewGraph, NodeRegistry, ParseError,
                    SparseAdjacency, build_multiview, load_edge_list,
                    load_labels, read_embedding, read_manifest, view_stats,
                    write_edge_list, write_embedding)
from .multiview import (MvneConfig, ViewWeights, combine_views, default_betas,
                        mvne_embed, svne_embed)
from .testkit import SbmSpec, dump_dataset, generate_multiview_sbm

__all__ = [
    "EvalProtocol", "EvalReport", "macro_f1", "micro_f1",
    "predict_multilabel", "run_protocol", "split_labeled", "train_ovr",
    "Factorization", "FactorizeConfig", "embedding", "factorize",
    "init_factorization", "kl_objective", "update_step",
    "LabelStore", "MultiViewGraph", "NodeRegistry", "ParseError",
    "SparseAdjacency", "build_multiview", "load_edge_list", "load_labels",
    "read_embedding", "read_manifest", "view_stats", "write_edge_list",
    "write_embedding",
    "MvneConfig", "ViewWeights", "combine_views", "default_betas",
    "mvne_embed", "svne_embed",
    "SbmSpec", "dump_dataset", "generate_multiview_sbm",
]
