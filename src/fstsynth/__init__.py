"""Exact minimal single-output transducer synthesis from input-output
pairs, plus the classical baseline: the prefix trie with equal subtrees
merged bottom-up."""
