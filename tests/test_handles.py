"""Name grammar: parsing, rendering, and the rewrite algebra."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from onhs.errors import (
    HandleStructureError,
    InvalidLabelError,
    LabelLengthError,
    LabelSyntaxError,
    LeadingZeroError,
    NotUnderRootError,
)
from onhs.handles import (
    MAX_NAME_LEN,
    Handle,
    HandleLabel,
    parse_handle,
    parse_handle_guess_root,
    parse_label,
)

ROOT = "handleroot.example.org"

GOLDEN_APEX = "h1g5k0061A38F9A3540B9.handleroot.example.org."
GOLDEN_LEAF = "h0k2.h0k3.h1g5k0061A38F9A3540B9.handleroot.example.org"


class TestGoldenNames:
    def test_apex_with_trailing_dot_round_trips_exactly(self):
        handle = parse_handle(GOLDEN_APEX, ROOT)
        assert handle.fqdn() == GOLDEN_APEX

    def test_leaf_without_trailing_dot_round_trips_exactly(self):
        handle = parse_handle(GOLDEN_LEAF, ROOT)
        assert handle.fqdn() == GOLDEN_LEAF

    def test_apex_label_fields(self):
        handle = parse_handle(GOLDEN_APEX, ROOT)
        label = handle.apex_label
        assert label.kind == "PK"
        assert label.algorithm_code == 5
        assert label.key_suffix == "0061A38F9A3540B9"

    def test_leaf_label_fields(self):
        handle = parse_handle(GOLDEN_LEAF, ROOT)
        # labels are stored apex first
        kinds = [lab.kind for lab in handle.labels]
        ordinals = [lab.ordinal for lab in handle.labels]
        assert kinds == ["PK", "IA", "IA"]
        assert ordinals == [None, "3", "2"]

    def test_leading_zeros_in_hex_suffix_survive(self):
        handle = parse_handle(GOLDEN_APEX, ROOT)
        assert handle.apex_label.key_suffix.startswith("00")

    def test_case_insensitive_parse_canonicalizes_hex_upper(self):
        lower = GOLDEN_APEX.lower()
        handle = parse_handle(lower, ROOT)
        assert handle.apex_label.key_suffix == "0061A38F9A3540B9"
        # grammar letters render lowercase, hex renders uppercase
        assert handle.labels[0].encode() == "h1g5k0061A38F9A3540B9"

    def test_mixed_case_equal_to_canonical(self):
        a = parse_handle(GOLDEN_APEX, ROOT)
        b = parse_handle("H0K2.h0k3.h1g5k0061a38f9a3540b9.HandleRoot.Example.Org",
                         ROOT)
        assert a == b.apex()
        assert b.name_key().endswith("handleroot.example.org")

    @pytest.mark.parametrize("root", ["HandleRoot.Example.ORG", "HandleRoot.Example.ORG."])
    def test_rendered_name_keeps_a_mixed_case_root_verbatim(self, root):
        text = f"h0k2.h0k3.h1g5k0061A38F9A3540B9.{root}"
        handle = parse_handle(text, ROOT)
        built = Handle(labels=handle.labels, root_suffix=root)
        plain = parse_handle(GOLDEN_LEAF, ROOT)
        for h in (handle, built):
            assert h.fqdn() == str(h) == text
            assert h.fqdn_no_dot() == text.rstrip(".")
            assert h.name_key() == GOLDEN_LEAF.lower()
            assert repr(h) == f"Handle({text!r})"
            assert h == plain and hash(h) == hash(plain)
        assert handle.parent().fqdn() == f"h0k3.h1g5k0061A38F9A3540B9.{root}"
        assert handle.apex().fqdn() == f"h1g5k0061A38F9A3540B9.{root}"


class TestLabelGrammar:
    def test_pk_parses(self):
        label = parse_label("h1g5k0061A38F9A3540B9")
        assert (label.kind, label.algorithm_code) == ("PK", 5)

    def test_ia_and_oa_parse(self):
        assert parse_label("h0k2").kind == "IA"
        assert parse_label("h2k427").kind == "OA"

    def test_ordinal_zero_allowed(self):
        assert parse_label("h0k0").ordinal == "0"

    def test_ordinal_leading_zero_rejected(self):
        with pytest.raises(LeadingZeroError):
            parse_label("h0k01")

    def test_algorithm_code_leading_zero_rejected(self):
        with pytest.raises(LeadingZeroError):
            parse_label("h1g05k0061A38F9A3540B9")

    def test_algorithm_code_zero_rejected(self):
        with pytest.raises(LabelSyntaxError):
            parse_label("h1g0k0061A38F9A3540B9")

    def test_algorithm_code_too_big_rejected(self):
        with pytest.raises(LabelSyntaxError):
            parse_label("h1g256k0061A38F9A3540B9")

    def test_suffix_below_minimum_rejected(self):
        with pytest.raises(LabelLengthError):
            parse_label("h1g5k" + "A" * 13)

    def test_suffix_at_bounds_accepted(self):
        assert parse_label("h1g5k" + "A" * 14).key_suffix == "A" * 14
        assert parse_label("h1g5k" + "B" * 40).key_suffix == "B" * 40

    def test_suffix_above_maximum_rejected(self):
        with pytest.raises(LabelLengthError):
            parse_label("h1g5k" + "A" * 41)

    def test_ordinal_length_bounds(self):
        assert parse_label("h0k" + "9" * 60).ordinal == "9" * 60
        with pytest.raises(LabelLengthError):
            parse_label("h0k" + "9" * 61)

    def test_junk_rejected(self):
        for bad in ("", "h", "h3k1", "h0k", "h1g5k", "h0k2x", "www", "h1k5kABC",
                    "h0k-1", "h1g5kGG61A38F9A3540", "h0k1 "):
            with pytest.raises(InvalidLabelError):
                parse_label(bad)


class TestHandleStructure:
    def test_apex_must_be_pk(self):
        with pytest.raises(HandleStructureError):
            parse_handle(f"h0k2.{ROOT}", ROOT)

    def test_pk_below_apex_rejected(self):
        with pytest.raises(HandleStructureError):
            parse_handle(f"h1g5k{'A' * 14}.h1g5k{'B' * 14}.{ROOT}", ROOT)

    def test_root_itself_is_not_a_handle(self):
        with pytest.raises(HandleStructureError):
            parse_handle(ROOT, ROOT)

    def test_other_domain_rejected(self):
        with pytest.raises(NotUnderRootError):
            parse_handle("h1g5k0061A38F9A3540B9.elsewhere.example", ROOT)

    def test_name_length_limit(self):
        deep = ".".join(["h0k" + "9" * 58] * 4) + f".h1g5k{'A' * 14}.{ROOT}"
        with pytest.raises(HandleStructureError):
            parse_handle(deep, ROOT)

    def test_guess_root(self):
        handle = parse_handle_guess_root(GOLDEN_LEAF)
        assert handle.root_suffix_no_dot() == ROOT
        assert handle.fqdn() == GOLDEN_LEAF

    def test_guess_root_needs_some_root(self):
        with pytest.raises(NotUnderRootError):
            parse_handle_guess_root("h0k2.h1g5k" + "A" * 14)


class TestHandleAlgebra:
    def setup_method(self):
        self.apex = parse_handle(GOLDEN_APEX, ROOT)
        self.leaf = parse_handle(GOLDEN_LEAF, ROOT)

    def test_apex_and_parent(self):
        assert self.leaf.apex() == self.apex
        assert self.leaf.parent().fqdn_no_dot() == (
            "h0k3.h1g5k0061A38F9A3540B9.handleroot.example.org"
        )
        assert self.apex.parent() is None

    def test_child(self):
        child = self.apex.child(HandleLabel.ia("7"))
        assert child.fqdn_no_dot().startswith("h0k7.")
        assert child.parent() == self.apex

    def test_ancestry_runs_apex_to_leaf(self):
        chain = list(self.leaf.ancestry())
        assert chain[0] == self.apex
        assert chain[-1] == self.leaf
        assert len(chain) == 3

    def test_is_under(self):
        assert self.leaf.is_under(self.apex)
        assert not self.apex.is_under(self.leaf)
        assert not self.leaf.is_under(self.leaf)

    def test_replace_prefix_rewrites_suffix_branch(self):
        other = parse_handle(f"h1g5k{'C' * 16}.{ROOT}", ROOT)
        moved = self.leaf.replace_prefix(self.apex, other)
        assert moved.fqdn_no_dot() == f"h0k2.h0k3.h1g5k{'C' * 16}.{ROOT}"

    def test_replace_prefix_onto_deeper_target(self):
        other = parse_handle(f"h0k427.h1g5k{'C' * 16}.{ROOT}", ROOT)
        moved = self.leaf.replace_prefix(self.leaf.parent(), other)
        assert moved.fqdn_no_dot() == f"h0k2.h0k427.h1g5k{'C' * 16}.{ROOT}"

    def test_replace_prefix_of_self_is_target(self):
        other = parse_handle(f"h1g5k{'C' * 16}.{ROOT}", ROOT)
        assert self.leaf.replace_prefix(self.leaf, other) == other

    def test_derived_names_keep_the_name_limit(self):
        long = HandleLabel.ia("9" * 58)  # 61 octets
        deep = self.apex.child(long).child(long)  # 168 octets
        other = parse_handle(f"h1g5k{'C' * 16}.{ROOT}", ROOT).child(long).child(long)
        with pytest.raises(HandleStructureError):  # a DNAME rewrite to 292 octets
            deep.replace_prefix(self.apex, other)
        with pytest.raises(HandleStructureError):  # 292 octets again
            deep.child(long).child(long)

    def test_child_takes_only_an_ia_or_oa_label(self):
        with pytest.raises(HandleStructureError):
            self.leaf.child(HandleLabel.pk(5, "C" * 16))
        assert self.leaf.child(HandleLabel.oa("4")).labels[-1].kind == "OA"

    def test_derived_handles_render_as_parsed_ones(self):
        other = parse_handle(f"h0k427.h1g5k{'C' * 16}.{ROOT}", ROOT)
        derived = [self.leaf.apex(), self.leaf.parent(), self.apex.child(HandleLabel.ia("7")),
                   self.leaf.replace_prefix(self.leaf.parent(), other), *self.leaf.ancestry()]
        for handle in derived:
            again = parse_handle(handle.fqdn(), handle.root_suffix)
            assert (handle.fqdn(), handle.name_key()) == (again.fqdn(), again.name_key())
            assert handle == again and hash(handle) == hash(again)


class TestRandomizedGrammar:
    def test_valid_labels_round_trip(self):
        rng = random.Random(20260816)
        hexdigits = "0123456789ABCDEF"
        for _ in range(400):
            kind = rng.choice(["PK", "IA", "OA"])
            if kind == "PK":
                code = rng.randint(1, 255)
                suffix = "".join(rng.choice(hexdigits) for _ in range(rng.randint(14, 40)))
                text = f"h1g{code}k{suffix}"
            else:
                head = "h0k" if kind == "IA" else "h2k"
                length = rng.randint(1, 60)
                if length == 1:
                    ordinal = rng.choice("0123456789")
                else:
                    ordinal = rng.choice("123456789") + "".join(
                        rng.choice("0123456789") for _ in range(length - 1)
                    )
                text = head + ordinal
            label = parse_label(text)
            assert label.encode() == text
            # and parse is case-insensitive over the whole label
            assert parse_label(text.lower()).encode() == text

    def test_single_character_corruptions_never_parse_as_same_label(self):
        rng = random.Random(96)
        base = "h1g5k0061A38F9A3540B9"
        parsed = parse_label(base)
        for _ in range(300):
            pos = rng.randrange(len(base))
            repl = rng.choice("ghk0123456789XYZ.-")
            if repl.upper() == base[pos].upper():
                continue
            mutated = base[:pos] + repl + base[pos + 1:]
            try:
                other = parse_label(mutated)
            except InvalidLabelError:
                continue
            assert other != parsed

    def test_random_handles_round_trip(self):
        rng = random.Random(5)
        hexdigits = "0123456789ABCDEF"
        for _ in range(200):
            suffix = "".join(rng.choice(hexdigits) for _ in range(16))
            parts = [f"h1g5k{suffix}"]
            for _ in range(rng.randint(0, 3)):
                head = rng.choice(["h0k", "h2k"])
                parts.insert(0, head + str(rng.randint(0, 10 ** 6)))
            dot = rng.choice(["", "."])
            text = ".".join(parts) + f".{ROOT}{dot}"
            handle = parse_handle(text, ROOT)
            assert handle.fqdn() == text


# Each bad label form with the error class and message parse_label gives
# for it; parse_handle gives the same when the label sits in a name.
BAD_LABELS = [
    ("h1g05k0061A38F9A3540B9", LeadingZeroError, "algorithm code '05' has a leading zero"),
    ("h1g0k0061A38F9A3540B9", LabelSyntaxError, "algorithm code 0 outside 1..255"),
    ("h1g256k0061A38F9A3540B9", LabelSyntaxError, "algorithm code 256 outside 1..255"),
    ("h1g5k" + "A" * 13, LabelLengthError, "key suffix length 13 outside 14..40"),
    ("h1g5k" + "A" * 41, LabelLengthError, "key suffix length 41 outside 14..40"),
    (
        "h1g5k0061A38F9A3540BZ",
        LabelSyntaxError,
        "label 'h1g5k0061A38F9A3540BZ' does not match any handle form",
    ),
    ("h0k01", LeadingZeroError, "ordinal '01' has a leading zero"),
    ("h2k007", LeadingZeroError, "ordinal '007' has a leading zero"),
    ("h0k" + "1" * 61, LabelLengthError, "label longer than 63 octets"),
    ("", LabelSyntaxError, "empty label"),
    ("h1g5k" + "A" * 59, LabelLengthError, "label longer than 63 octets"),
    # the Kelvin sign (U+212A) folds to k, but labels are ASCII only
    (
        "h1g5\u212a0061A38F9A3540B9",
        LabelSyntaxError,
        "label 'h1g5\u212a0061A38F9A3540B9' does not match any handle form",
    ),
    ("h0\u212a12", LabelSyntaxError, "label 'h0\u212a12' does not match any handle form"),
]


class TestLabelErrors:
    @pytest.mark.parametrize("text,error,message", BAD_LABELS)
    def test_parse_label_error_class_and_message(self, text, error, message):
        with pytest.raises(error) as caught:
            parse_label(text)
        assert type(caught.value) is error
        assert str(caught.value) == message

    @pytest.mark.parametrize("text,error,message", BAD_LABELS)
    def test_parse_handle_error_class_and_message(self, text, error, message):
        name = f"{text}.{ROOT}" if text.startswith("h1g") else f"{text}.{GOLDEN_APEX}"
        with pytest.raises(error) as caught:
            parse_handle(name, ROOT)
        assert type(caught.value) is error
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "fields,error,message",
        [
            (("PK", 256, "A" * 16, None), LabelSyntaxError, "algorithm code 256 outside 1..255"),
            (("PK", 5, "A" * 13, None), LabelLengthError, "key suffix length 13 outside 14..40"),
            (("PK", 5, "Z" * 16, None), LabelSyntaxError, f"key suffix {'Z' * 16!r} is not hex"),
            (("IA", None, None, "1" * 61), LabelLengthError, "ordinal longer than 60 digits"),
            (("OA", None, None, "01"), LeadingZeroError, "ordinal '01' has a leading zero"),
            (("IA", None, None, "x1"), LabelSyntaxError, "ordinal 'x1' is not decimal"),
        ],
    )
    def test_label_constructor_keeps_every_check(self, fields, error, message):
        with pytest.raises(error) as caught:
            HandleLabel(*fields)
        assert type(caught.value) is error
        assert str(caught.value) == message


_ordinals = st.one_of(
    st.just("0"),
    st.builds(lambda head, rest: head + rest, st.sampled_from("123456789"),
              st.text("0123456789", max_size=59)),
)
_below_apex = st.builds(
    lambda kind, ordinal: HandleLabel(kind=kind, ordinal=ordinal),
    st.sampled_from(["IA", "OA"]), _ordinals,
)
_apex_labels = st.builds(
    HandleLabel.pk, st.integers(1, 255), st.text("0123456789abcdefABCDEF", min_size=14, max_size=40)
)
# mixed-case roots, with and without a trailing dot
_roots = st.builds(
    lambda parts, dot: ".".join(parts) + dot,
    st.lists(st.text("abcXYZ09-", min_size=1, max_size=12), min_size=1, max_size=3),
    st.sampled_from(["", "."]),
)


@st.composite
def valid_handles(draw) -> Handle:
    labels = (draw(_apex_labels),) + tuple(draw(st.lists(_below_apex, max_size=4)))
    root = draw(_roots)
    while len(".".join(map(str, labels))) + len(root.rstrip(".")) + 1 > MAX_NAME_LEN:
        labels = labels[:-1]
    return Handle(labels=labels, root_suffix=root)


class TestDerivedHandles:
    """apex, parent and ancestry cut their handles from a valid one; each
    must be the handle the validating constructor builds from its labels."""

    @settings(max_examples=150, deadline=None)
    @given(handle=valid_handles())
    def test_derived_handles_match_constructed_ones(self, handle):
        derived = [handle.apex(), *handle.ancestry()]
        if handle.parent() is not None:
            derived.append(handle.parent())
        for prefix in derived:
            built = Handle(labels=prefix.labels, root_suffix=handle.root_suffix)
            assert prefix.labels == built.labels
            assert prefix.root_suffix == built.root_suffix
            assert prefix.fqdn() == built.fqdn()
            assert prefix.name_key() == built.name_key()
            assert prefix == built and hash(prefix) == hash(built)
            assert repr(prefix) == repr(built)
        assert [len(h.labels) for h in handle.ancestry()] == list(range(1, len(handle.labels) + 1))
        assert handle.apex().labels == handle.labels[:1]
        if handle.parent() is not None:
            assert handle.parent().labels == handle.labels[:-1]

    @settings(max_examples=60, deadline=None)
    @given(handle=valid_handles(), label=_below_apex)
    def test_child_and_replace_prefix_still_check_the_name_length(self, handle, label):
        grown = len(handle.fqdn_no_dot()) + 1 + len(str(label))
        if grown > MAX_NAME_LEN:
            with pytest.raises(HandleStructureError):
                handle.child(label)
        else:
            assert handle.child(label).fqdn_no_dot() == f"{label}.{handle.fqdn_no_dot()}"
        long = HandleLabel.ia("9" * 58)  # 61 octets
        deep = handle.apex().child(long)
        target = handle
        while len(target.fqdn_no_dot()) + 62 <= MAX_NAME_LEN:
            target = target.child(long)
        with pytest.raises(HandleStructureError):  # target's name plus one 61-octet label
            deep.replace_prefix(handle.apex(), target)


def _scrambled(text: str, flips: list) -> str:
    """text with the letters at the drawn positions in the other case."""
    chars = list(text)
    for i in flips:
        if i < len(chars):
            chars[i] = chars[i].swapcase()
    return "".join(chars)


class TestParsedHandles:
    """parse_handle reads each label once and builds the handle from the
    checked parts; what it builds must be what the validating
    constructors build, and the text must render back."""

    @settings(max_examples=120, deadline=None)
    @given(handle=valid_handles(), flips=st.lists(st.integers(0, 252), max_size=12))
    def test_a_parsed_name_renders_back_with_hex_in_upper_case(self, handle, flips):
        canonical = handle.fqdn()
        text = _scrambled(canonical, flips)
        parsed = parse_handle(text, handle.root_suffix_no_dot().upper())
        root_verbatim = text[len(text) - len(handle.root_suffix):]
        assert parsed.fqdn() == canonical[: -len(handle.root_suffix)] + root_verbatim
        built = Handle(labels=parsed.labels, root_suffix=root_verbatim)
        assert parsed.labels == handle.labels
        assert hash(parsed.labels) == hash(handle.labels)
        assert parsed.fqdn() == built.fqdn()
        assert parsed.name_key() == built.name_key()
        assert parsed == built and hash(parsed) == hash(built)
        assert repr(parsed) == repr(built)

    def test_a_kelvin_sign_is_not_the_k_of_a_label(self):
        # U+212A folds to k; this name once parsed as
        # h0k12.h1g5k082C3419B55AC99D, which renders differently
        name = "h0\u212a12.h1g5\u212a082C3419B55AC99D.handleroot.example.org"
        with pytest.raises(LabelSyntaxError):
            parse_handle(name, ROOT)
