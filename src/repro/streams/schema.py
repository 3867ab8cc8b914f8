"""Source schemas and the stream catalog.

A *source* is a named stream (``"A"``, ``"B"``, ...) whose tuples carry a
fixed set of integer-valued attributes.  The evaluation workload of the paper
(Section VI) gives every source ``N - 1`` join columns, one per other source,
but the schema layer is generic: any attribute set is allowed and values may
be arbitrary hashable objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

__all__ = ["Attribute", "SourceSchema", "StreamCatalog"]


@dataclass(frozen=True)
class Attribute:
    """A single named attribute of a stream source.

    Parameters
    ----------
    name:
        Attribute name, unique within its source.
    dtype:
        Informational type tag (``"int"`` by default).  The engine does not
        enforce it, but workload generators and the CQL front end use it for
        validation and pretty-printing.
    size_bytes:
        Modelled storage footprint of one value, used by the memory model.
    """

    name: str
    dtype: str = "int"
    size_bytes: int = 8

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be non-empty")
        if self.size_bytes <= 0:
            raise ValueError("attribute size_bytes must be positive")


@dataclass(frozen=True)
class SourceSchema:
    """Schema of one streaming source: a name plus an ordered attribute list."""

    name: str
    attributes: Tuple[Attribute, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("source name must be non-empty")
        names = [a.name for a in self.attributes]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate attribute names in source {self.name!r}: {names}")

    @classmethod
    def of(cls, name: str, attribute_names: Iterable[str]) -> "SourceSchema":
        """Build a schema of integer attributes from plain attribute names."""
        return cls(name, tuple(Attribute(a) for a in attribute_names))

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        """Names of all attributes, in declaration order."""
        return tuple(a.name for a in self.attributes)

    def has_attribute(self, attr: str) -> bool:
        """Return True if ``attr`` is an attribute of this source."""
        return any(a.name == attr for a in self.attributes)

    def attribute(self, attr: str) -> Attribute:
        """Look up an attribute by name, raising ``KeyError`` if absent."""
        for a in self.attributes:
            if a.name == attr:
                return a
        raise KeyError(f"source {self.name!r} has no attribute {attr!r}")

    @property
    def tuple_size_bytes(self) -> int:
        """Modelled size in bytes of one tuple of this source.

        A fixed 16-byte header (timestamp + bookkeeping) plus each attribute's
        modelled size.  Used by :class:`repro.metrics.MemoryModel`.
        """
        return 16 + sum(a.size_bytes for a in self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)


@dataclass
class StreamCatalog:
    """Registry of all source schemas participating in a query.

    The catalog plays the role of a system catalog in a conventional DBMS:
    plan builders resolve attribute references against it, and workload
    generators use it to know which columns to populate.
    """

    _schemas: Dict[str, SourceSchema] = field(default_factory=dict)

    @classmethod
    def from_schemas(cls, schemas: Iterable[SourceSchema]) -> "StreamCatalog":
        """Build a catalog from an iterable of schemas."""
        catalog = cls()
        for schema in schemas:
            catalog.register(schema)
        return catalog

    def register(self, schema: SourceSchema) -> None:
        """Add ``schema`` to the catalog.

        Raises
        ------
        ValueError
            If a different schema is already registered under the same name.
        """
        existing = self._schemas.get(schema.name)
        if existing is not None and existing != schema:
            raise ValueError(f"conflicting schema already registered for {schema.name!r}")
        self._schemas[schema.name] = schema

    def schema(self, source: str) -> SourceSchema:
        """Return the schema of ``source``, raising ``KeyError`` if unknown."""
        try:
            return self._schemas[source]
        except KeyError:
            raise KeyError(
                f"unknown source {source!r}; registered sources: {sorted(self._schemas)}"
            ) from None

    def __contains__(self, source: str) -> bool:
        return source in self._schemas

    def __len__(self) -> int:
        return len(self._schemas)

    @property
    def source_names(self) -> List[str]:
        """All registered source names in sorted order."""
        return sorted(self._schemas)

    def validate_reference(self, source: str, attr: str) -> None:
        """Check that ``source.attr`` resolves, raising ``KeyError`` otherwise."""
        schema = self.schema(source)
        if not schema.has_attribute(attr):
            raise KeyError(
                f"source {source!r} has no attribute {attr!r}; "
                f"available: {schema.attribute_names}"
            )

    def tuple_size_bytes(self, source: str) -> int:
        """Modelled byte size of one tuple of ``source``."""
        return self.schema(source).tuple_size_bytes
