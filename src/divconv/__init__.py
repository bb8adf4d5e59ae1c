"""Exact evaluation of divisor-sum convolution identities via eta-quotient
cusp bases and Eisenstein series, with brute-force oracles throughout."""
