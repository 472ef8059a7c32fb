"""Interactive query shell (the reference Shell's preview loop, slimmed):

    python -m odinson_ray.shell --sf-dir /root/testdata/sf0.001
    python -m odinson_ray.shell --fixture becky-gummy-bears

Type a pattern to see highlighted matches; ``:limit N`` sets the preview
size; ``:corpus`` prints corpus stats; ``:quit`` exits. Over an sf dir the
shell runs the pattern through the distributed matcher with ``ds.limit``
previews; over a fixture it uses the in-memory engine.

TAB completes commands and the corpus's dependency vocabulary as
``>label`` / ``<label`` traversal steps (reference parity:
extra/.../Shell.scala:59-68 builds the same completer from the index's
dependencies vocabulary; here the vocabulary comes from the fixture's
sentence graphs or the deterministic annotator's label set).
"""

from __future__ import annotations

import argparse
import sys


COMMANDS = (":help", ":limit", ":corpus", ":quit", ":q", ":exit")


def dep_completions(labels) -> list:
    """The reference Shell's autocomplete option list: every dependency
    label as an outgoing (>label) and incoming (<label) traversal step,
    plus the shell commands (Shell.scala:59-68)."""
    opts = []
    for lab in sorted(set(labels)):
        opts.append(f">{lab}")
        opts.append(f"<{lab}")
    return opts + list(COMMANDS)


def make_completer(options):
    """readline-protocol completer closure over ``options`` (exposed so
    tests exercise the SHIPPED matching logic, not a copy)."""
    opts = list(options)

    def complete(text, state):
        matches = [o for o in opts if o.startswith(text)]
        return matches[state] if state < len(matches) else None

    return complete


def install_completer(options) -> None:
    """Wire ``options`` into readline word completion (TAB). No-op when
    readline is unavailable (non-interactive stdin / exotic platforms)."""
    try:
        import readline
    except ImportError:
        return

    readline.set_completer(make_completer(options))
    # keep > and < inside the completed word so ">ns<TAB>" works
    readline.set_completer_delims(" \t\n")
    readline.parse_and_bind("tab: complete")


def fixture_dep_labels(engine) -> set:
    labels = set()
    for doc in engine.docs:
        for sent in doc.sentences:
            for adj in sent.graph.outgoing:
                labels.update(lab for _, lab in adj)
    return labels


def highlight(tokens, start, end):
    return " ".join(
        [*tokens[:start], ">>" + " ".join(tokens[start:end]) + "<<", *tokens[end:]]
    )


def run_fixture_shell(key: str) -> None:
    from .api import OdinsonEngine

    engine = OdinsonEngine.from_fixture(key)
    limit = 10
    install_completer(dep_completions(fixture_dep_labels(engine)))
    print(f"fixture corpus: {key} ({len(engine.docs[0].sentences)} sentences)")
    for line in _repl():
        if line.startswith(":limit"):
            limit = int(line.split()[1])
            continue
        if line == ":corpus":
            for doc in engine.docs:
                for i, s in enumerate(doc.sentences):
                    print(f"  {doc.doc_id}[{i}] {' '.join(s.tokens())}")
            continue
        try:
            mentions = engine.query(line, n=limit)
        except Exception as e:
            print(f"error: {e}")
            continue
        for m in mentions:
            toks = engine.doc_by_id[m.doc_id].sentences[m.sent_idx].tokens()
            print(f"  {m.doc_id}[{m.sent_idx}] {highlight(toks, m.start, m.end)}")
        print(f"({len(mentions)} match(es))")


def run_dataset_shell(sf_dir: str) -> None:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from .sources.interleaved import read_interleaved
    from .stages.match import GrammarMatcher, match_batches

    # the deterministic annotator's dependency vocabulary (the dataset
    # shell's corpus is annotated with exactly these labels)
    from .stages.annotate import GROUP_LABELS

    install_completer(dep_completions(list(GROUP_LABELS) + ["conj"]))
    limit = 10
    print(f"corpus: {sf_dir}")
    for line in _repl():
        if line.startswith(":limit"):
            limit = int(line.split()[1])
            continue
        if line == ":corpus":
            ds = read_interleaved(sf_dir)
            print(f"  {ds.count()} documents")
            continue
        rules = f"""
rules:
  - name: shell-query
    label: Hit
    type: basic
    pattern: "{line}"
"""
        try:
            ds = match_batches(read_interleaved(sf_dir), GrammarMatcher, rules,
                               batch_size=128)
            rows = ds.limit(limit).to_pandas()
        except Exception as e:
            print(f"error: {e}")
            continue
        for r in rows.itertuples():
            print(f"  {r.doc_id}[{r.sent_id}] [{r.start},{r.end}) {r.text}")
        print(f"(showing up to {limit})")


def _repl():
    while True:
        try:
            line = input("odinson> ").strip()
        except (EOFError, KeyboardInterrupt):
            return
        if line in (":quit", ":q", ":exit"):
            return
        if line:
            yield line


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir")
    ap.add_argument("--fixture")
    args = ap.parse_args()
    if args.fixture:
        run_fixture_shell(args.fixture)
    elif args.sf_dir:
        run_dataset_shell(args.sf_dir)
    else:
        print("need --sf-dir or --fixture", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
