//! Dictionary-encoded columnar relations.

use crate::error::{Error, Result};
use crate::pool::{Code, Pool, NULL_CODE};
use crate::schema::{AttrId, Schema};
use crate::value::Value;
use std::sync::Arc;

/// Index of a row within a relation.
pub type RowId = usize;

/// A columnar, dictionary-encoded relation.
///
/// Cells are stored as [`Code`]s in per-attribute column vectors; the codes
/// are allocated by a [`Pool`] shared across relations, so cross-relation
/// value equality is code equality. The pool and schema are reference-counted
/// and shared by derived relations ([`Relation::gather`]).
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Arc<Schema>,
    pool: Arc<Pool>,
    columns: Vec<Vec<Code>>,
    num_rows: usize,
    /// Monotonically increasing growth counter: bumped once per appended row
    /// ([`Relation::push_row`], [`Relation::append`],
    /// [`RelationBuilder::push_codes`]). Indexes record the generation they
    /// were built or delta-updated at, so a stale index — one probed after
    /// the relation grew underneath it — is detectable (and, under the
    /// `debug-invariants` feature, a panic). In-place cell overwrites
    /// ([`Relation::set`]) do not bump it: the counter tracks *growth*, the
    /// master-data append path of §V-D3, not repairs.
    generation: u64,
}

impl Relation {
    /// An empty relation over `schema` using `pool` for encoding.
    pub fn empty(schema: Arc<Schema>, pool: Arc<Pool>) -> Self {
        let columns = vec![Vec::new(); schema.arity()];
        Relation {
            schema,
            pool,
            columns,
            num_rows: 0,
            generation: 0,
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The value pool used for encoding.
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of attributes.
    pub fn num_attrs(&self) -> usize {
        self.schema.arity()
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// The growth generation: how many rows have been appended since the
    /// relation was created. Monotonically increasing; never reset.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Dictionary code of the cell at (`row`, `attr`).
    ///
    /// # Panics
    /// Panics if `row` or `attr` is out of bounds.
    #[inline]
    pub fn code(&self, row: RowId, attr: AttrId) -> Code {
        self.columns[attr][row]
    }

    /// Decoded value of the cell at (`row`, `attr`).
    pub fn value(&self, row: RowId, attr: AttrId) -> Value {
        self.pool.value(self.code(row, attr))
    }

    /// Whether the cell at (`row`, `attr`) is NULL.
    #[inline]
    pub fn is_null(&self, row: RowId, attr: AttrId) -> bool {
        self.code(row, attr) == NULL_CODE
    }

    /// The raw code column for `attr`. Hot-path accessor for miners.
    #[inline]
    pub fn column(&self, attr: AttrId) -> &[Code] {
        &self.columns[attr]
    }

    /// All decoded values of one row.
    pub fn row_values(&self, row: RowId) -> Vec<Value> {
        (0..self.num_attrs()).map(|a| self.value(row, a)).collect()
    }

    /// Overwrite the cell at (`row`, `attr`) with `value` (interning it).
    /// Used by the repair engine and the error injector.
    pub fn set(&mut self, row: RowId, attr: AttrId, value: Value) -> Result<()> {
        if row >= self.num_rows {
            return Err(Error::RowOutOfBounds {
                row,
                len: self.num_rows,
            });
        }
        self.check_type(attr, &value)?;
        let code = self.pool.intern(value);
        self.columns[attr][row] = code;
        Ok(())
    }

    /// Overwrite the cell at (`row`, `attr`) with an already-encoded code.
    ///
    /// # Panics
    /// Panics if `row` or `attr` is out of bounds.
    pub fn set_code(&mut self, row: RowId, attr: AttrId, code: Code) {
        self.columns[attr][row] = code;
    }

    /// Append all rows of `other` (same schema object, same pool) — the
    /// incremental-enrichment path of §V-D3.
    ///
    /// # Panics
    /// Panics if the schemas or pools differ (the codes would be
    /// meaningless otherwise).
    pub fn append(&mut self, other: &Relation) {
        assert!(
            Arc::ptr_eq(&self.schema, &other.schema),
            "append requires the same schema"
        );
        assert!(
            Arc::ptr_eq(&self.pool, &other.pool),
            "append requires the same pool"
        );
        for (dst, src) in self.columns.iter_mut().zip(&other.columns) {
            dst.extend_from_slice(src);
        }
        self.num_rows += other.num_rows;
        self.generation += other.num_rows as u64;
    }

    /// Project onto a subset of attributes, producing a relation over a new
    /// schema (attribute order follows `attrs`). Shares the pool.
    ///
    /// # Panics
    /// Panics if any attribute id is out of range.
    pub fn project(&self, name: &str, attrs: &[AttrId]) -> Relation {
        let schema = Arc::new(Schema::new(
            name,
            attrs.iter().map(|&a| self.schema.attr(a).clone()).collect(),
        ));
        let columns = attrs.iter().map(|&a| self.columns[a].clone()).collect();
        Relation {
            schema,
            pool: Arc::clone(&self.pool),
            columns,
            num_rows: self.num_rows,
            generation: 0,
        }
    }

    /// Build a new relation from a subset (or re-ordering, or multiset) of
    /// this relation's rows. Shares the schema and pool; copies the codes.
    pub fn gather(&self, rows: &[RowId]) -> Relation {
        let columns = self
            .columns
            .iter()
            .map(|col| rows.iter().map(|&r| col[r]).collect())
            .collect();
        Relation {
            schema: Arc::clone(&self.schema),
            pool: Arc::clone(&self.pool),
            columns,
            num_rows: rows.len(),
            generation: 0,
        }
    }

    /// Sorted distinct non-NULL codes appearing in `attr`'s column — the
    /// active domain `dom(A)` of the attribute in this relation.
    pub fn distinct_codes(&self, attr: AttrId) -> Vec<Code> {
        let mut codes: Vec<Code> = self.columns[attr]
            .iter()
            .copied()
            .filter(|&c| c != NULL_CODE)
            .collect();
        codes.sort_unstable();
        codes.dedup();
        codes
    }

    /// Size of the active domain of `attr` (distinct non-NULL values).
    pub fn domain_size(&self, attr: AttrId) -> usize {
        self.distinct_codes(attr).len()
    }

    /// `(min, max)` over the numeric values of `attr`, ignoring NULLs and
    /// non-numeric cells. `None` when the column has no numeric value.
    pub fn numeric_bounds(&self, attr: AttrId) -> Option<(f64, f64)> {
        let mut bounds: Option<(f64, f64)> = None;
        for code in self.distinct_codes(attr) {
            if let Some(v) = self.pool.value(code).as_f64() {
                bounds = Some(match bounds {
                    None => (v, v),
                    Some((lo, hi)) => (lo.min(v), hi.max(v)),
                });
            }
        }
        bounds
    }

    /// Number of NULL cells in `attr`'s column.
    pub fn null_count(&self, attr: AttrId) -> usize {
        self.columns[attr]
            .iter()
            .filter(|&&c| c == NULL_CODE)
            .count()
    }

    fn check_type(&self, attr: AttrId, value: &Value) -> Result<()> {
        let a = self.schema.attr(attr);
        if a.is_continuous() && !value.is_null() && value.as_f64().is_none() {
            return Err(Error::TypeMismatch {
                attr: a.name.clone(),
                expected: "numeric or NULL",
                got: format!("{value:?}"),
            });
        }
        Ok(())
    }

    /// Validate one row against the schema without committing it: arity and
    /// continuous-attribute typing, exactly the checks [`Relation::push_row`]
    /// performs before interning anything. Lets callers validate a whole
    /// batch up front so a mid-batch failure cannot leave a partial append.
    pub fn validate_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(Error::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        for (attr, value) in row.iter().enumerate() {
            self.check_type(attr, value)?;
        }
        Ok(())
    }

    /// Append one row of values to the relation, interning them through the
    /// shared pool — the serve-mode path for folding externally supplied
    /// rows into an existing dictionary-encoded relation without a rebuild.
    /// Validates arity and continuous-attribute typing like
    /// [`RelationBuilder::push_row`]; a failed validation leaves the
    /// relation (rows, columns, generation) untouched.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        self.push_row_internal(row)
    }

    /// Append one row from a borrowed slice, cloning each cell only at the
    /// interning boundary. The serve front end iterates a reusable batch
    /// buffer as `&[Value]` windows; this avoids materializing a `Vec` per
    /// row on the hot path. Same validation and atomicity as
    /// [`push_row`](Self::push_row).
    pub fn push_row_ref(&mut self, row: &[Value]) -> Result<()> {
        self.validate_row(row)?;
        for (attr, value) in row.iter().enumerate() {
            let code = self.pool.intern(value.clone());
            self.columns[attr].push(code);
        }
        self.num_rows += 1;
        self.generation += 1;
        Ok(())
    }

    /// Append a batch of rows atomically: every row is validated before any
    /// row is committed, so an error (reported for the first offending row)
    /// leaves the relation unmodified. Returns the [`RowId`] of the first
    /// appended row — the `from_row` the index delta-update paths
    /// ([`crate::KeyIndex::apply_append`] and friends) take.
    pub fn push_rows(&mut self, rows: &[Vec<Value>]) -> Result<RowId> {
        for row in rows {
            self.validate_row(row)?;
        }
        let from_row = self.num_rows;
        for row in rows {
            for (attr, value) in row.iter().enumerate() {
                let code = self.pool.intern(value.clone());
                self.columns[attr].push(code);
            }
            self.num_rows += 1;
            self.generation += 1;
        }
        Ok(from_row)
    }

    fn push_row_internal(&mut self, row: Vec<Value>) -> Result<()> {
        self.validate_row(&row)?;
        for (attr, value) in row.into_iter().enumerate() {
            let code = self.pool.intern(value);
            self.columns[attr].push(code);
        }
        self.num_rows += 1;
        self.generation += 1;
        Ok(())
    }
}

/// Incremental construction of a [`Relation`].
///
/// Rows are validated (arity, continuous-attribute typing) as they are pushed
/// so a malformed source fails at the offending row, not at query time.
#[derive(Debug)]
pub struct RelationBuilder {
    rel: Relation,
}

impl RelationBuilder {
    /// Start building a relation over `schema`, encoding through `pool`.
    pub fn new(schema: Arc<Schema>, pool: Arc<Pool>) -> Self {
        RelationBuilder {
            rel: Relation::empty(schema, pool),
        }
    }

    /// Append one row of values.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        self.rel.push_row_internal(row)
    }

    /// Append one row of pre-encoded codes (no type checking: the codes are
    /// assumed to come from the same pool).
    ///
    /// # Panics
    /// Panics if the arity differs from the schema's.
    pub fn push_codes(&mut self, row: &[Code]) {
        assert_eq!(
            row.len(),
            self.rel.schema.arity(),
            "code row arity mismatch"
        );
        for (attr, &code) in row.iter().enumerate() {
            self.rel.columns[attr].push(code);
        }
        self.rel.num_rows += 1;
        self.rel.generation += 1;
    }

    /// Append `rows` rows given column by column: `columns[attr]` holds
    /// the codes of every new row, from the same pool.
    pub(crate) fn push_columns(&mut self, columns: Vec<Vec<Code>>, rows: usize) {
        debug_assert_eq!(columns.len(), self.rel.schema.arity());
        for (dst, src) in self.rel.columns.iter_mut().zip(columns) {
            debug_assert_eq!(src.len(), rows);
            if dst.is_empty() {
                *dst = src;
            } else {
                dst.extend_from_slice(&src);
            }
        }
        self.rel.num_rows += rows;
        self.rel.generation += rows as u64;
    }

    /// The pool the relation encodes through.
    pub(crate) fn pool(&self) -> &Arc<Pool> {
        &self.rel.pool
    }

    /// Number of rows pushed so far.
    pub fn len(&self) -> usize {
        self.rel.num_rows
    }

    /// Whether no rows have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.rel.num_rows == 0
    }

    /// Finish and return the relation.
    pub fn finish(self) -> Relation {
        self.rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn fixture() -> Relation {
        let pool = Arc::new(Pool::new());
        let schema = Arc::new(Schema::new(
            "t",
            vec![
                Attribute::categorical("City"),
                Attribute::categorical("ZIP"),
                Attribute::continuous("Age"),
            ],
        ));
        let mut b = RelationBuilder::new(schema, pool);
        b.push_row(vec![Value::str("HZ"), Value::str("31200"), Value::int(30)])
            .unwrap();
        b.push_row(vec![Value::str("BJ"), Value::str("10021"), Value::int(41)])
            .unwrap();
        b.push_row(vec![Value::str("HZ"), Value::Null, Value::float(29.5)])
            .unwrap();
        b.finish()
    }

    #[test]
    fn basic_shape() {
        let r = fixture();
        assert_eq!(r.num_rows(), 3);
        assert_eq!(r.num_attrs(), 3);
        assert!(!r.is_empty());
    }

    #[test]
    fn cell_access_round_trips() {
        let r = fixture();
        assert_eq!(r.value(0, 0), Value::str("HZ"));
        assert_eq!(r.value(1, 1), Value::str("10021"));
        assert_eq!(r.value(2, 2), Value::float(29.5));
        assert!(r.is_null(2, 1));
        assert_eq!(
            r.row_values(1),
            vec![Value::str("BJ"), Value::str("10021"), Value::int(41)]
        );
    }

    #[test]
    fn shared_pool_gives_equal_codes_for_equal_values() {
        let r = fixture();
        assert_eq!(r.code(0, 0), r.code(2, 0)); // both "HZ"
        assert_ne!(r.code(0, 0), r.code(1, 0));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let pool = Arc::new(Pool::new());
        let schema = Arc::new(Schema::new("t", vec![Attribute::categorical("A")]));
        let mut b = RelationBuilder::new(schema, pool);
        let err = b.push_row(vec![Value::int(1), Value::int(2)]).unwrap_err();
        assert!(matches!(
            err,
            Error::ArityMismatch {
                expected: 1,
                got: 2
            }
        ));
    }

    #[test]
    fn continuous_type_enforced() {
        let pool = Arc::new(Pool::new());
        let schema = Arc::new(Schema::new("t", vec![Attribute::continuous("Age")]));
        let mut b = RelationBuilder::new(schema, pool);
        assert!(b.push_row(vec![Value::str("old")]).is_err());
        assert!(b.push_row(vec![Value::Null]).is_ok());
        assert!(b.push_row(vec![Value::int(3)]).is_ok());
    }

    #[test]
    fn set_updates_cell() {
        let mut r = fixture();
        r.set(2, 1, Value::str("31200")).unwrap();
        assert_eq!(r.value(2, 1), Value::str("31200"));
        assert_eq!(r.code(2, 1), r.code(0, 1));
        assert!(r.set(99, 0, Value::Null).is_err());
    }

    #[test]
    fn gather_subsets_rows() {
        let r = fixture();
        let g = r.gather(&[2, 0]);
        assert_eq!(g.num_rows(), 2);
        assert_eq!(g.value(0, 0), Value::str("HZ"));
        assert_eq!(g.value(1, 2), Value::int(30));
        // Shares the pool: codes must be identical.
        assert_eq!(g.code(1, 0), r.code(0, 0));
    }

    #[test]
    fn distinct_codes_exclude_null() {
        let r = fixture();
        assert_eq!(r.domain_size(0), 2); // HZ, BJ
        assert_eq!(r.domain_size(1), 2); // 31200, 10021 (NULL excluded)
        assert_eq!(r.null_count(1), 1);
        assert_eq!(r.null_count(0), 0);
    }

    #[test]
    fn numeric_bounds() {
        let r = fixture();
        let (lo, hi) = r.numeric_bounds(2).unwrap();
        assert_eq!(lo, 29.5);
        assert_eq!(hi, 41.0);
        assert_eq!(r.numeric_bounds(0), None); // strings
    }

    #[test]
    fn push_row_appends_without_rebuild() {
        let mut r = fixture();
        let schema = Arc::clone(r.schema());
        let pool = Arc::clone(r.pool());
        r.push_row(vec![Value::str("SZ"), Value::str("51800"), Value::int(50)])
            .unwrap();
        assert_eq!(r.num_rows(), 4);
        assert_eq!(r.value(3, 0), Value::str("SZ"));
        // Schema and pool objects are untouched (no rebuild).
        assert!(Arc::ptr_eq(r.schema(), &schema));
        assert!(Arc::ptr_eq(r.pool(), &pool));
        // Validation still applies.
        assert!(r.push_row(vec![Value::str("only-one")]).is_err());
        assert!(r
            .push_row(vec![Value::str("SZ"), Value::Null, Value::str("notnum")])
            .is_err());
        assert_eq!(r.num_rows(), 4);
    }

    #[test]
    fn generation_counts_appended_rows() {
        let mut r = fixture();
        assert_eq!(r.generation(), 3); // the builder pushed 3 rows
        r.push_row(vec![Value::str("SZ"), Value::Null, Value::int(7)])
            .unwrap();
        assert_eq!(r.generation(), 4);
        // Failed pushes leave the generation untouched.
        assert!(r.push_row(vec![Value::str("only-one")]).is_err());
        assert_eq!(r.generation(), 4);
        // In-place overwrites are not growth: the counter tracks appends.
        r.set(0, 0, Value::str("BJ")).unwrap();
        assert_eq!(r.generation(), 4);
        // Derived relations start their own history.
        assert_eq!(r.gather(&[0, 1]).generation(), 0);
        assert_eq!(r.project("p", &[0]).generation(), 0);
        // Clones carry the counter with them.
        assert_eq!(r.clone().generation(), 4);
    }

    #[test]
    fn push_rows_is_atomic_across_the_batch() {
        let mut r = fixture();
        let gen = r.generation();
        // Row 1 of the batch has a type error: nothing commits, not even the
        // valid row 0.
        let err = r
            .push_rows(&[
                vec![Value::str("SZ"), Value::str("51800"), Value::int(50)],
                vec![Value::str("GZ"), Value::Null, Value::str("notnum")],
            ])
            .unwrap_err();
        assert!(matches!(err, Error::TypeMismatch { .. }));
        assert_eq!(r.num_rows(), 3);
        assert_eq!(r.generation(), gen);
        // Arity errors are equally atomic.
        assert!(r
            .push_rows(&[vec![Value::Null, Value::Null, Value::Null], vec![]])
            .is_err());
        assert_eq!(r.num_rows(), 3);
        // A valid batch commits every row and returns the first new row id.
        let from = r
            .push_rows(&[
                vec![Value::str("SZ"), Value::str("51800"), Value::int(50)],
                vec![Value::Null, Value::Null, Value::Null],
            ])
            .unwrap();
        assert_eq!(from, 3);
        assert_eq!(r.num_rows(), 5);
        assert_eq!(r.generation(), gen + 2);
        assert!(r.is_null(4, 0) && r.is_null(4, 1) && r.is_null(4, 2));
    }

    #[test]
    fn push_row_interns_new_codes_mid_append() {
        let mut r = fixture();
        let before = r.pool().len();
        // A value never seen by the pool gets a fresh code...
        r.push_row(vec![Value::str("Atlantis"), Value::Null, Value::Null])
            .unwrap();
        assert!(r.pool().len() > before);
        // ...while already-interned values reuse their code exactly.
        r.push_row(vec![Value::str("HZ"), Value::str("31200"), Value::Null])
            .unwrap();
        assert_eq!(r.code(4, 0), r.code(0, 0));
        assert_eq!(r.code(4, 1), r.code(0, 1));
    }

    #[test]
    fn push_codes_bumps_generation() {
        let pool = Arc::new(Pool::new());
        let schema = Arc::new(Schema::new("t", vec![Attribute::categorical("A")]));
        let code = pool.intern(Value::str("x"));
        let mut b = RelationBuilder::new(schema, pool);
        b.push_codes(&[code]);
        b.push_codes(&[NULL_CODE]);
        let r = b.finish();
        assert_eq!(r.generation(), 2);
        assert!(r.is_null(1, 0));
        assert_eq!(r.value(0, 0), Value::str("x"));
    }

    #[test]
    #[should_panic(expected = "code row arity mismatch")]
    fn push_codes_rejects_wrong_arity_before_committing() {
        let pool = Arc::new(Pool::new());
        let schema = Arc::new(Schema::new("t", vec![Attribute::categorical("A")]));
        let mut b = RelationBuilder::new(schema, pool);
        b.push_codes(&[1, 2]);
    }

    #[test]
    fn append_extends_rows() {
        let mut a = fixture();
        let b = a.gather(&[0, 1]);
        a.append(&b);
        assert_eq!(a.num_rows(), 5);
        assert_eq!(a.value(3, 0), Value::str("HZ"));
        assert_eq!(a.value(4, 1), Value::str("10021"));
    }

    #[test]
    #[should_panic(expected = "append requires the same pool")]
    fn append_rejects_foreign_pool() {
        let mut a = fixture();
        // Same schema *object* required too — build a twin with a new pool
        // but reuse a's schema Arc to hit the pool check.
        let pool = Arc::new(Pool::new());
        let other = Relation::empty(Arc::clone(a.schema()), pool);
        a.append(&other);
    }

    #[test]
    fn project_reorders_attributes() {
        let r = fixture();
        let p = r.project("slim", &[2, 0]);
        assert_eq!(p.num_attrs(), 2);
        assert_eq!(p.schema().attr(0).name, "Age");
        assert_eq!(p.schema().attr(1).name, "City");
        assert_eq!(p.num_rows(), r.num_rows());
        assert_eq!(p.code(1, 1), r.code(1, 0));
        // Shares the pool.
        assert!(Arc::ptr_eq(p.pool(), r.pool()));
    }

    #[test]
    fn empty_relation() {
        let pool = Arc::new(Pool::new());
        let schema = Arc::new(Schema::new("t", vec![Attribute::categorical("A")]));
        let r = Relation::empty(schema, pool);
        assert!(r.is_empty());
        assert_eq!(r.distinct_codes(0), Vec::<Code>::new());
    }
}
