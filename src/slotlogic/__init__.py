"""Differentiable rule induction for slot-filling dialog policies.

Importing the package loads no module: each exported name imports its
module on first use (PEP 562), so the crisp half (conversion, transfer,
evaluation) runs without loading numpy or the training engine.
"""

import importlib

# Each exported name and the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "dialog": "DOMAINS BeliefState Dialog DialogAct DomainSpec SampleRecord Turn "
                  "build_sample decode_acts encode_acts encode_state",
        "engine": "CompiledModel Hyperparams ModelCompiler TrainedModel TrainingDiverged "
                  "finite_difference_grad infer loss loss_and_grad train train_task",
        "extract": "PolicyProgram crisp_infer extract_program load_program save_program",
        "logic": "Atom Clause GroundIndex LanguageFrame ParseError Predicate Sample Term "
                 "UnsafeClauseError atom build_ground_index format_atom format_clause "
                 "parse_atom parse_clause",
        "metrics": "F1Score MetricsReport",
        "multiwoz": "convert_multiwoz_records",
        "simulator": "GeneratorConfig generate_corpus generate_dialog representative_dialog",
        "templates": "ProgramTemplate RuleTemplate generate_clauses",
    }.items()
    for name in names.split()
}

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
