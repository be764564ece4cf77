"""Desk-scale curation, deduplication, mixing and evaluation toolkit for
legal-domain LLM corpora."""

__version__ = "0.1.0"

from .corpus import Document, SourceTag, read_documents, write_documents

__all__ = [
    "Document",
    "SourceTag",
    "read_documents",
    "write_documents",
    "__version__",
]
