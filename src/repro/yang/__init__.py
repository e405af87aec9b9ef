"""A minimal YANG-like modelling engine.

The paper: "The data model of the virtualizer is defined in Yang."
This package provides the subset needed to express that model and to
exchange it over the Unify/NETCONF interfaces:

- schema trees (:class:`Container`, :class:`YangList`, :class:`Leaf`)
  with types, mandatory flags and defaults;
- data trees validated against a schema;
- deterministic serialization (dict/JSON and a compact XML-ish text);
- structural *diff* and *patch*, because the Unify interface exchanges
  configuration deltas rather than full trees.
"""

from repro.yang.schema import (
    Container,
    Leaf,
    LeafType,
    SchemaError,
    YangList,
)
from repro.yang.data import DataNode, ValidationError, data_from_dict
from repro.yang.diff import DiffEntry, DiffOp, apply_patch, diff_trees

__all__ = [
    "Container",
    "Leaf",
    "LeafType",
    "SchemaError",
    "YangList",
    "DataNode",
    "ValidationError",
    "data_from_dict",
    "DiffEntry",
    "DiffOp",
    "apply_patch",
    "diff_trees",
]
