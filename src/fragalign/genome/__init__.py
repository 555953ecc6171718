"""Genome/contig simulation substrate and the Fig.-1 inference pipeline.

Names load from their submodules on first access (PEP 562): the
serving tiers and the load-generating CLI verbs only need
:mod:`fragalign.genome.dna`, and must not pay for the pipeline's
``fragalign.core`` (and ``scipy``) imports.
"""

import importlib

# Public name -> defining submodule.
_EXPORTS = {
    "exact_overlap": "assembly",
    "greedy_assemble": "assembly",
    "RegionHit": "conserved",
    "build_csr_instance": "conserved",
    "find_conserved_regions": "conserved",
    "gc_content": "dna",
    "mutate": "dna",
    "random_dna": "dna",
    "reverse_complement": "dna",
    "Ancestor": "evolution",
    "PlacedBlock": "evolution",
    "SpeciesGenome": "evolution",
    "evolve": "evolution",
    "make_ancestor": "evolution",
    "OrientOrderReport": "metrics",
    "evaluate_solution": "metrics",
    "PipelineConfig": "pipeline",
    "PipelineResult": "pipeline",
    "run_pipeline": "pipeline",
    "truth_hits": "pipeline",
    "Contig": "shotgun",
    "Read": "shotgun",
    "fragment_into_contigs": "shotgun",
    "sample_reads": "shotgun",
    "Inference": "report",
    "format_report": "report",
    "infer_relations": "report",
    "MatePair": "scaffold",
    "Scaffold": "scaffold",
    "ScaffoldLink": "scaffold",
    "build_scaffolds": "scaffold",
    "sample_mate_pairs": "scaffold",
    "scaffold_order_accuracy": "scaffold",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
