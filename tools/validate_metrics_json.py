#!/usr/bin/env python3
"""Validate exported observability JSON against a checked-in schema.

Dependency-free (stdlib json only): implements exactly the JSON Schema
subset the schemas under tools/schemas/ use — type, enum, minimum,
required, properties, patternProperties, additionalProperties (false or
schema), items (single schema), minItems, maxItems, oneOf (exactly one
branch must validate). Anything else in a schema is a hard error, so a
schema edit can't silently skip validation.

Usage:
  validate_metrics_json.py <schema.json> <doc.json> [<doc.json> ...]
  validate_metrics_json.py --extract metrics <schema.json> <bench.json> ...

--extract KEY validates doc[KEY] instead of the document root — used for
the metrics snapshot embedded in bench JSON lines. A file may hold several
documents back to back (JSON Lines, e.g. one line per repro experiment);
each is validated. Exits nonzero with path-annotated errors on the first
invalid document.
"""

import json
import re
import sys

_KNOWN_KEYS = {
    "$schema", "title", "description", "type", "enum", "minimum",
    "required", "properties", "patternProperties", "additionalProperties",
    "items", "minItems", "maxItems", "oneOf",
}

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "integer": int,
    "number": (int, float),
    "null": type(None),
}


def _check_type(value, expected, path, errors):
    py = _TYPES[expected]
    # bool is an int subclass in Python; never accept it for numerics.
    if expected in ("integer", "number") and isinstance(value, bool):
        errors.append(f"{path}: expected {expected}, got boolean")
        return False
    if not isinstance(value, py):
        errors.append(f"{path}: expected {expected}, got {type(value).__name__}")
        return False
    return True


def validate(value, schema, path, errors):
    unknown = set(schema) - _KNOWN_KEYS
    if unknown:
        raise SystemExit(
            f"schema error at {path}: unsupported keywords {sorted(unknown)}")

    if "oneOf" in schema:
        matches = []
        branch_errors = []
        for i, branch in enumerate(schema["oneOf"]):
            errs = []
            validate(value, branch, path, errs)
            if not errs:
                matches.append(i)
            else:
                branch_errors.append(f"branch {i}: {errs[0]}")
        if len(matches) != 1:
            detail = "; ".join(branch_errors[:3])
            errors.append(
                f"{path}: matched {len(matches)} of {len(schema['oneOf'])} "
                f"oneOf branches (need exactly 1): {detail}")
            return

    if "type" in schema and not _check_type(value, schema["type"], path, errors):
        return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in enum {schema['enum']}")
        return
    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and value < schema["minimum"]:
        errors.append(f"{path}: {value} < minimum {schema['minimum']}")

    if isinstance(value, dict):
        props = schema.get("properties", {})
        patterns = {re.compile(p): s
                    for p, s in schema.get("patternProperties", {}).items()}
        extra = schema.get("additionalProperties", True)
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        for key, item in value.items():
            sub = f"{path}.{key}"
            matched = False
            if key in props:
                matched = True
                validate(item, props[key], sub, errors)
            for pattern, pattern_schema in patterns.items():
                if pattern.search(key):
                    matched = True
                    validate(item, pattern_schema, sub, errors)
            if not matched:
                if extra is False:
                    errors.append(f"{path}: unexpected key {key!r}")
                elif isinstance(extra, dict):
                    validate(item, extra, sub, errors)

    if isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            errors.append(f"{path}: {len(value)} items < minItems "
                          f"{schema['minItems']}")
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            errors.append(f"{path}: {len(value)} items > maxItems "
                          f"{schema['maxItems']}")
        if "items" in schema:
            for i, item in enumerate(value):
                validate(item, schema["items"], f"{path}[{i}]", errors)


def load_documents(path):
    """Every JSON document in the file, in order (one, or JSON Lines)."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    decoder = json.JSONDecoder()
    docs = []
    pos = 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            break
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)
    if not docs:
        raise ValueError(f"{path}: no JSON document")
    return docs


def main(argv):
    args = argv[1:]
    extract = None
    if args and args[0] == "--extract":
        if len(args) < 2:
            raise SystemExit("--extract requires a key")
        extract = args[1]
        args = args[2:]
    if len(args) < 2:
        raise SystemExit(__doc__)

    with open(args[0], encoding="utf-8") as f:
        schema = json.load(f)

    failed = False
    for doc_path in args[1:]:
        docs = load_documents(doc_path)
        for i, doc in enumerate(docs):
            where = doc_path if len(docs) == 1 else f"{doc_path}[{i}]"
            if extract is not None:
                if not isinstance(doc, dict) or extract not in doc:
                    print(f"{where}: no {extract!r} key to extract",
                          file=sys.stderr)
                    failed = True
                    continue
                doc = doc[extract]
            errors = []
            validate(doc, schema, "$", errors)
            if errors:
                failed = True
                for err in errors:
                    print(f"{where}: {err}", file=sys.stderr)
            else:
                print(f"{where}: OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
