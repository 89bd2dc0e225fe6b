"""methodlens: method-level change-history mining and change-proneness
analysis for Java git repositories."""

__version__ = "0.2.0"
