"""Differentiable rule induction for slot-filling dialog policies."""

from .dialog import (
    BeliefState,
    Dialog,
    DialogAct,
    DomainSpec,
    SampleRecord,
    Turn,
    build_sample,
    decode_acts,
    encode_acts,
    encode_state,
)
from .engine import (
    CompiledModel,
    Hyperparams,
    ModelCompiler,
    Sample,
    TrainedModel,
    TrainingDiverged,
    finite_difference_grad,
    infer,
    loss,
    loss_and_grad,
    train,
)
from .extract import (
    PolicyProgram,
    crisp_infer,
    extract_program,
    load_program,
    save_program,
)
from .logic import (
    Atom,
    Clause,
    GroundIndex,
    LanguageFrame,
    ParseError,
    Predicate,
    Term,
    UnsafeClauseError,
    atom,
    build_ground_index,
    format_atom,
    format_clause,
    parse_atom,
    parse_clause,
)
from .metrics import F1Score, MetricsReport
from .multiwoz import convert_multiwoz_records
from .simulator import (
    DOMAINS,
    GeneratorConfig,
    generate_corpus,
    generate_dialog,
    representative_dialog,
)
from .templates import ProgramTemplate, RuleTemplate, generate_clauses

__version__ = "0.1.0"
