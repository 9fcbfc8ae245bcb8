"""Regenerate the pinned files in ``perfbench/data`` (about a minute):

    python3 perfbench/pin.py

``restaurant_program.txt`` is the shipping one-shot program: the
restaurant representative dialog trained with the default restarts and
1,200 steps, then extracted, exactly as ``simdial_one_shot`` does.
``oneshot_pin.json`` holds, per iteration count the ``oneshot_train``
workload uses, the digest of the program extracted after that many
iterations and the final loss. Rerun only when a change is meant to
alter these outputs, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from slotlogic import engine, extract, pipeline  # noqa: E402
from slotlogic.simulator import representative_dialog  # noqa: E402

import workloads  # noqa: E402


def oneshot_pin(iterations: int) -> dict:
    samples = pipeline.training_samples(pipeline.convert_corpus([representative_dialog("restaurant")]))
    background, pool = pipeline.simdial_background()
    trained = engine.train(
        pipeline.simdial_frame(), samples, pipeline.simdial_template(),
        pipeline.simdial_hyperparams(training_steps=iterations), background, pool,
    )
    text = extract.program_to_text(extract.extract_program(trained))
    return {
        "program_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "final_loss": trained.final_loss,
    }


def main() -> None:
    result = pipeline.simdial_one_shot("restaurant")
    extract.save_program(result.program, workloads.PROGRAM_PATH)
    pins = {
        str(sizes["iterations"]): oneshot_pin(sizes["iterations"])
        for sizes in (workloads.SIZES["oneshot_train"], workloads.TINY_SIZES["oneshot_train"])
    }
    workloads.ONESHOT_PIN_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
