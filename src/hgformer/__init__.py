"""Hypergraph-attention vision backbone with a tape-based autodiff core."""

from .ablation import AblationTable, ablation_arms, run_ablation
from .bench import attention_complexity_scan, bench_throughput, construction_complexity_scan
from .checkpoint import load_tensors, save_tensors
from .construct import (
    IncidenceMatrix,
    TokenSet,
    build_incidence,
    cs_knn,
    knn_assign,
    sample_centers,
    score_tokens,
    topology_dump,
)
from .data import ToyDataset, ToyDatasetSpec, make_toy_dataset
from .gradcheck import GradCheckReport, grad_check_suite
from .messaging import (
    DropPath,
    HgaParams,
    hga_e2n,
    hga_n2e,
    hgconv_e2n,
    hgconv_n2e,
    topo_attention,
)
from .model import (
    HGFormer,
    NetworkConfig,
    StageConfig,
    block_forward,
    network_forward,
    patch_embed,
    single_stage_variant,
    vanilla_attention_variant,
    variant,
)
from .tensor import (
    ConfigError,
    FlopCounter,
    NumericalError,
    ShapeError,
    Tape,
    Tensor,
)
from .training import AdamW, RunReport, TrainConfig, train

__version__ = "0.1.0"
