import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from amrex.entailment import nli_pair
from amrex.errors import TemplateError, TransportError
from amrex.explain import (DEFAULT_PROMPT_TEMPLATE, build_bundle, build_prompt,
                           generate_explanation, render_mapping,
                           render_markdown, render_text)
from amrex.graph import parse_penman
from amrex.similarity import DeterministicTestBackend
from amrex.smatch import AlignConfig

from _fixtures import (MARNIE_CLAIM, MARNIE_EVIDENCE, RABIES_CLAIM,
                       RABIES_EVIDENCE, RABIES_MAPPING)


def _rabies_bundle(label=None):
    claim = parse_penman(RABIES_CLAIM)
    evidence = parse_penman(RABIES_EVIDENCE)
    score = nli_pair("the evidence sentence", evidence,
                     "the claim sentence", claim,
                     lam=0.5, backend=DeterministicTestBackend(dim=64),
                     cfg=AlignConfig(restarts=4, seed=0, include_top=True))
    return build_bundle(claim, evidence, "the claim sentence",
                        "the evidence sentence", score, label=label)


def test_mapping_lines_follow_alignment():
    bundle = _rabies_bundle()
    rendered = render_mapping(bundle)
    claim = parse_penman(RABIES_CLAIM)
    evidence = parse_penman(RABIES_EVIDENCE)
    for hv, pv in RABIES_MAPPING:
        assert f"{hv}({claim.nodes[hv]}) --> {pv}({evidence.nodes[pv]})" in rendered
    # Every claim variable is total-mapped here, so no unmapped section.
    assert "unmapped:" not in rendered
    assert len(rendered.splitlines()) == len(claim.nodes)


def test_unmapped_section_lists_leftover_claim_variables():
    claim = parse_penman("(c0 / cat :mod (c1 / black) :ARG0-of (c2 / run-02))")
    evidence = parse_penman("(d0 / cat)")
    score = nli_pair("e", evidence, "c", claim, lam=1.0,
                     backend=DeterministicTestBackend(dim=16))
    bundle = build_bundle(claim, evidence, "c", "e", score)
    rendered = render_mapping(bundle)
    assert "c0(cat) --> d0(cat)" in rendered
    head, _, tail = rendered.partition("unmapped:")
    assert "c1(black)" in tail and "c2(run-02)" in tail


def test_text_and_markdown_renderings():
    bundle = _rabies_bundle(label="R")
    text = render_text(bundle)
    assert text.startswith("claim: the claim sentence")
    assert "verdict: R" in text
    assert "decision: -1" in text or "decision: +1" in text
    md = render_markdown(bundle)
    assert md.startswith("**Claim:**")
    assert "```" in md
    assert render_mapping(bundle) in md


def test_prompt_contains_required_sections_and_values():
    bundle = _rabies_bundle(label="R")
    prompt = build_prompt(bundle)
    for section in ("Key Mappings", "Explanation", "Classification"):
        assert section in prompt
    assert render_mapping(bundle) in prompt
    assert f"{bundle.score.smatch_p:.4f}" in prompt
    assert f"{bundle.score.cosine_sim:.4f}" in prompt
    assert f"{bundle.score.f_value:.4f}" in prompt
    assert "{" not in prompt.replace("{", "", 0) or "{claim}" not in prompt


def test_prompt_is_deterministic():
    assert build_prompt(_rabies_bundle()) == build_prompt(_rabies_bundle())


def test_custom_template_and_unknown_placeholder():
    bundle = _rabies_bundle()
    assert build_prompt(bundle, "score={smatch_precision}") == \
        f"score={bundle.score.smatch_p:.4f}"
    assert build_prompt(bundle, "no placeholders") == "no placeholders"
    with pytest.raises(TemplateError) as exc:
        build_prompt(bundle, "oops {no_such_field}")
    assert "no_such_field" in str(exc.value)


def test_default_template_placeholders_all_resolve():
    prompt = build_prompt(_rabies_bundle())
    assert prompt != DEFAULT_PROMPT_TEMPLATE
    assert "{mapping}" not in prompt


class _GenerateHandler(BaseHTTPRequestHandler):
    behavior = "ok"

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        if self.path != "/generate" or type(self).behavior == "http-error":
            self.send_response(500)
            self.end_headers()
            return
        if type(self).behavior == "empty":
            body = {"text": ""}
        else:
            body = {"text": "ANALYSIS of: " + payload["prompt"][:20]}
        data = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def generate_server():
    server = HTTPServer(("127.0.0.1", 0), _GenerateHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def test_generation_relays_prompt(generate_server):
    _GenerateHandler.behavior = "ok"
    text = generate_explanation("You are analyzing", generate_server)
    assert text == "ANALYSIS of: You are analyzing"


def test_generation_error_paths(generate_server):
    _GenerateHandler.behavior = "http-error"
    with pytest.raises(TransportError):
        generate_explanation("p", generate_server)
    _GenerateHandler.behavior = "empty"
    with pytest.raises(TransportError):
        generate_explanation("p", generate_server)
    _GenerateHandler.behavior = "ok"
    with pytest.raises(TransportError):
        generate_explanation("p", "http://127.0.0.1:9", timeout=0.5)


def test_marnie_bundle_label_supports():
    claim = parse_penman(MARNIE_CLAIM)
    evidence = parse_penman(MARNIE_EVIDENCE)
    score = nli_pair("e", evidence, "c", claim, lam=1.0,
                     backend=DeterministicTestBackend(dim=16))
    bundle = build_bundle(claim, evidence, "c", "e", score, label="S")
    assert bundle.score.decision == 1
    assert "verdict: S" in render_text(bundle)
