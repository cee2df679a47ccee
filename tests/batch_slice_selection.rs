//! Regression suite for [`Batch::slice`] over selection vectors.
//!
//! A selected batch's logical rows are the selection entries, not the
//! physical rows; `slice(offset, len)` must therefore slice the
//! *selection*, never the columns. The oracle for every case here is
//! flatten-then-slice: `b.slice(o, l)` must equal `b.flatten().slice(o, l)`
//! row for row. The suite also pins the checked [`Batch::try_slice`]
//! contract: out-of-range windows return field-named errors instead of
//! panicking, on both flat and selected batches.

use deferred_cleansing::relational::prelude::*;

fn batch(n: i64) -> Batch {
    let schema = schema_ref(Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("tag", DataType::Str),
    ]));
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Int(i), Value::str(format!("t{i}"))])
        .collect();
    Batch::from_rows(schema, &rows).unwrap()
}

fn rows_of(b: &Batch) -> Vec<Vec<Value>> {
    (0..b.num_rows()).map(|i| b.row(i)).collect()
}

/// Every (offset, len) window over a selected batch equals the same window
/// over the flattened batch.
#[test]
fn slice_of_selection_matches_flatten_oracle() {
    let base = batch(20);
    // An unordered, repeating selection — the hardest case: physical row
    // order, logical row order, and multiplicity all differ.
    let sel = vec![19u32, 3, 3, 11, 0, 7, 19, 2];
    let selected = base.with_selection(sel.clone());
    assert_eq!(selected.num_rows(), sel.len());
    let flat = selected.flatten();
    assert!(flat.is_flat());
    assert_eq!(rows_of(&selected), rows_of(&flat));

    for offset in 0..=sel.len() {
        for len in 0..=(sel.len() - offset) {
            let a = selected.slice(offset, len);
            let b = flat.slice(offset, len);
            assert_eq!(
                rows_of(&a),
                rows_of(&b),
                "slice({offset}, {len}) diverged from flatten oracle"
            );
            assert_eq!(a.num_rows(), len);
        }
    }
}

/// Slicing a slice composes: the selection window narrows each time and
/// still matches the flatten oracle.
#[test]
fn slice_of_slice_composes() {
    let base = batch(16);
    let selected = base.with_selection(vec![15, 1, 8, 8, 2, 13, 4, 6, 0, 10]);
    let once = selected.slice(2, 7); // logical rows 2..9
    let twice = once.slice(1, 4); // logical rows 3..7 of the original
    assert_eq!(rows_of(&twice), rows_of(&selected.flatten().slice(3, 4)));
    // And a third level, down to a single row.
    let thrice = twice.slice(3, 1);
    assert_eq!(rows_of(&thrice), rows_of(&selected.flatten().slice(6, 1)));
}

/// Empty windows are valid anywhere in range, including at the end.
#[test]
fn empty_slices_are_valid_at_every_offset() {
    for b in [batch(5), batch(5).with_selection(vec![4, 0, 2])] {
        for offset in 0..=b.num_rows() {
            let s = b.slice(offset, 0);
            assert_eq!(s.num_rows(), 0);
            assert_eq!(rows_of(&s), Vec::<Vec<Value>>::new());
        }
    }
}

/// `try_slice` errors name every field needed to debug the caller: offset,
/// len, logical row count, and the selection length when one is present.
#[test]
fn try_slice_errors_are_field_named() {
    let flat = batch(6);
    let err = flat.try_slice(4, 5).unwrap_err().to_string();
    assert!(err.contains("offset=4"), "missing offset: {err}");
    assert!(err.contains("offset+len=9"), "missing end: {err}");
    assert!(err.contains("rows=6"), "missing rows: {err}");

    let selected = batch(6).with_selection(vec![5, 1, 3]);
    let err = selected.try_slice(2, 2).unwrap_err().to_string();
    assert!(err.contains("rows=3"), "logical rows, not physical: {err}");
    assert!(
        err.contains("selection of 3 entries"),
        "missing selection length: {err}"
    );

    let err = flat.try_slice(usize::MAX, 2).unwrap_err().to_string();
    assert!(err.contains("overflows usize"), "missing overflow: {err}");

    // In-range windows on the same batches still succeed.
    assert_eq!(flat.try_slice(4, 2).unwrap().num_rows(), 2);
    assert_eq!(selected.try_slice(1, 2).unwrap().num_rows(), 2);
}

/// Cutting a batch into chunk slices and concatenating them back — what a
/// pipeline breaker does with the chunks of the breaker below it — returns
/// windows of the original payload, not copies; a chunk that went through a
/// filter is gathered, and the result equals the flatten oracle row for row.
#[test]
fn concat_of_chunk_slices_is_copy_free_unless_a_chunk_is_selected() {
    let base = batch(10);
    let chunks = || vec![base.slice(0, 4), base.slice(4, 4), base.slice(8, 2)];

    let rejoined = Batch::concat(&chunks()).unwrap();
    assert_eq!(rows_of(&rejoined), rows_of(&base));
    for (joined, original) in rejoined.columns().iter().zip(base.columns()) {
        assert!(
            std::ptr::eq(joined.data(), original.data()),
            "shared payload"
        );
    }
    assert_eq!(rows_of(&rejoined.slice(3, 4)), rows_of(&base.slice(3, 4)));
    assert_eq!(
        rows_of(&rejoined.take(&[9, 0])),
        rows_of(&base.take(&[9, 0]))
    );

    let mut filtered = chunks();
    filtered[1] = filtered[1].with_selection(vec![0, 3]);
    let oracle: Vec<Vec<Value>> = filtered
        .iter()
        .flat_map(|c| rows_of(&c.flatten()))
        .collect();
    let joined = Batch::concat(&filtered).unwrap();
    assert!(joined.is_flat());
    assert_eq!(rows_of(&joined), oracle);
    for (joined, original) in joined.columns().iter().zip(base.columns()) {
        assert!(
            !std::ptr::eq(joined.data(), original.data()),
            "gathered copy"
        );
    }
}
