"""The behaviour contract, pinned.

Refactors of the frontend, the passes, the analyses or the solver must
leave these digests byte-identical:

* the corpus report fingerprint of
  ``detect_corpus(extended=True, baselines=True)``, serial and on a
  two-worker serving engine;
* the corpus IR digest: sha256 of the concatenated
  ``print_module(compile_source(p.source, p.name))`` over
  ``corpus.all_programs()``, in order;
* the same post-pass IR digest over the generated program sets of
  seeds 0, 7 and 4242 (``perfbench/generator.py``, loaded read-only).

A digest that moves is a behaviour change: find out why rather than
re-pinning it.
"""

import hashlib

import pytest

from repro import compile_source
from repro.ir import print_module
from repro.pipeline.engine import detect_corpus
from repro.workloads.corpus import all_programs

CORPUS_FINGERPRINT = (
    "ad5c37dd50d925efa9244b44cfabc29aec4d70d6bcc163a2b7151aa148bbdab8"
)
CORPUS_IR_DIGEST = (
    "03ff2d92e2fb23f367ebf0aa545129704d040141c5456262eb55661f480b2f00"
)
GENERATED_IR_DIGESTS = {
    0: "81257d0c80d68c63f69ff7a278d9830d5fb4bf0f7f0922482e7c4dd6bb55848a",
    7: "e1090508795b017ba523e44927e02dd629c2a9ae1d4c896178daed2927c9255f",
    4242: "39cb66ea8eea899873d78d98ad5456a68ae527d9d506ba6c044fcca3b6ba0518",
}

def ir_digest(programs) -> str:
    return hashlib.sha256("".join(
        print_module(compile_source(p.source, p.name)) for p in programs
    ).encode()).hexdigest()


@pytest.mark.parametrize("jobs", [1, 2])
def test_corpus_fingerprint_is_pinned(jobs):
    report = detect_corpus(jobs=jobs, extended=True, baselines=True)
    assert report.fingerprint() == CORPUS_FINGERPRINT


def test_corpus_ir_digest_is_pinned():
    assert ir_digest(all_programs()) == CORPUS_IR_DIGEST


@pytest.mark.parametrize("seed", sorted(GENERATED_IR_DIGESTS))
def test_generated_ir_digest_is_pinned(generator, seed):
    programs = generator.generate(seed)
    assert ir_digest(programs) == GENERATED_IR_DIGESTS[seed]
