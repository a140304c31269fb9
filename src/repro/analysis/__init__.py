"""Program analyses: CFG, dominators, loops, SESE regions, wPST, SCEV,
access patterns, and memory dependences."""

from .cfg import (
    edges,
    exit_blocks,
    is_single_exit,
    predecessor_map,
    reachable_blocks,
    reverse_postorder,
)
from .dominators import DominatorTree, dominator_tree, postdominator_tree
from .loops import Loop, LoopInfo
from .callgraph import CallGraph
from .regions import ProgramStructureTree, Region, find_sese_regions
from .wpst import WPST, WPSTNode
from .scalar_evolution import (
    CNC,
    SCEV,
    SCEVAddRec,
    SCEVConstant,
    SCEVCouldNotCompute,
    SCEVScaled,
    SCEVSum,
    SCEVUnknown,
    ScalarEvolution,
    scev_add,
    scev_mul,
    scev_mul_const,
    scev_sub,
)
from .access_patterns import (
    AccessInfo,
    AccessPatternAnalysis,
    AffineSubscript,
    SubscriptResolver,
)
from .banking import (
    CONFLICT_FREE,
    CONFLICTED,
    UNKNOWN,
    BankingAnalysis,
    BankingScheme,
    BankingVerdict,
    GroupAccess,
    GroupProbe,
    SchemeVerdict,
    probe_function,
)
from .dependence import (
    DependenceTester,
    DependenceVector,
    LatticeSet,
    LevelEntry,
    PairTestResult,
)
from .memdep import Dependence, MemoryDependenceAnalysis

__all__ = [
    "edges", "exit_blocks", "is_single_exit", "predecessor_map",
    "reachable_blocks", "reverse_postorder",
    "DominatorTree", "dominator_tree", "postdominator_tree",
    "Loop", "LoopInfo", "CallGraph",
    "ProgramStructureTree", "Region", "find_sese_regions",
    "WPST", "WPSTNode",
    "CNC", "SCEV", "SCEVAddRec", "SCEVConstant", "SCEVCouldNotCompute",
    "SCEVScaled", "SCEVSum", "SCEVUnknown", "ScalarEvolution",
    "scev_add", "scev_mul", "scev_mul_const", "scev_sub",
    "AccessInfo", "AccessPatternAnalysis", "AffineSubscript",
    "SubscriptResolver",
    "CONFLICT_FREE", "CONFLICTED", "UNKNOWN",
    "BankingAnalysis", "BankingScheme", "BankingVerdict",
    "GroupAccess", "GroupProbe", "SchemeVerdict", "probe_function",
    "DependenceTester", "DependenceVector",
    "LatticeSet", "LevelEntry", "PairTestResult",
    "Dependence", "MemoryDependenceAnalysis",
]
