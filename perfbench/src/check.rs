//! Output checks that share no code with the program under test: a
//! consecutive-ones test of a claimed atom order, and an exhaustive
//! non-C1P test of a claimed Tucker witness over every atom order.

/// The largest witness the exhaustive search accepts (one row bit of a
/// `u16` mask each). Pruning keeps it instant: most witnesses have at
/// most 7 atoms, but `serve` has met a 10-atom one.
pub const MAX_WITNESS_ATOMS: usize = 16;

/// Checks that `order` is a permutation of `0..n_atoms` under which every
/// column's atoms sit in consecutive positions.
pub fn check_order<'a>(
    n_atoms: usize,
    columns: impl IntoIterator<Item = &'a [u32]>,
    order: &[u32],
) -> Result<(), String> {
    if order.len() != n_atoms {
        return Err(format!("order has {} atoms, instance has {n_atoms}", order.len()));
    }
    let mut pos = vec![u32::MAX; n_atoms];
    for (i, &a) in order.iter().enumerate() {
        let slot = pos.get_mut(a as usize).ok_or_else(|| format!("atom {a} out of range"))?;
        if *slot != u32::MAX {
            return Err(format!("atom {a} repeated in the order"));
        }
        *slot = i as u32;
    }
    for (ci, col) in columns.into_iter().enumerate() {
        if col.is_empty() {
            continue;
        }
        let (mut lo, mut hi) = (u32::MAX, 0u32);
        for &a in col {
            let p = pos[a as usize];
            lo = lo.min(p);
            hi = hi.max(p);
        }
        if (hi - lo) as usize + 1 != col.len() {
            return Err(format!("column {ci} is not consecutive in the order"));
        }
    }
    Ok(())
}

/// Checks a claimed witness against the instance it was sent: its rows
/// and columns must name atoms and columns of `columns` (so the
/// submatrix is the instance's own), and no order of its rows may make
/// every selected column consecutive. Returns the witness's atom count.
pub fn check_witness(
    n_atoms: usize,
    columns: &[&[u32]],
    atom_rows: &[u32],
    column_ids: &[u32],
) -> Result<usize, String> {
    let k = atom_rows.len();
    if k == 0 || k > MAX_WITNESS_ATOMS {
        return Err(format!("witness has {k} atoms (brute force takes 1..={MAX_WITNESS_ATOMS})"));
    }
    if atom_rows.windows(2).any(|w| w[0] >= w[1]) || atom_rows[k - 1] as usize >= n_atoms {
        return Err("witness rows are not distinct atoms of the instance".into());
    }
    if column_ids.windows(2).any(|w| w[0] >= w[1])
        || column_ids.last().is_some_and(|&c| c as usize >= columns.len())
    {
        return Err("witness columns are not distinct columns of the instance".into());
    }
    // each selected column restricted to the witness rows, as a row bitmask
    let masks: Vec<u16> = column_ids
        .iter()
        .map(|&ci| {
            columns[ci as usize]
                .iter()
                .filter_map(|a| atom_rows.binary_search(a).ok())
                .fold(0u16, |m, r| m | 1 << r)
        })
        .collect();
    let mut perm: Vec<usize> = (0..k).collect();
    if any_order_consecutive(&mut perm, 0, &masks) {
        return Err(format!("witness on {k} atoms has a consecutive-ones order"));
    }
    Ok(k)
}

/// Heap-free permutation search: fixes `perm[..at]`, tries every choice
/// for position `at`, and succeeds when a full order makes every mask a
/// run of consecutive positions. A prefix is abandoned as soon as some
/// mask's placed rows are not consecutive, or are consecutive but stop
/// before the prefix's end while rows of that mask remain unplaced:
/// no completion can mend either.
fn any_order_consecutive(perm: &mut [usize], at: usize, masks: &[u16]) -> bool {
    let prefix_ok = masks.iter().all(|&m| {
        let placed = perm[..at]
            .iter()
            .enumerate()
            .fold(0u16, |acc, (pos, &row)| acc | (((m >> row) & 1) << pos));
        if placed == 0 {
            return true;
        }
        let run = placed >> placed.trailing_zeros();
        let ends_at_prefix_end = 16 - placed.leading_zeros() as usize == at;
        run & (run + 1) == 0 && (placed.count_ones() == m.count_ones() || ends_at_prefix_end)
    });
    if !prefix_ok || at == perm.len() {
        return prefix_ok;
    }
    for i in at..perm.len() {
        perm.swap(at, i);
        if any_order_consecutive(perm, at + 1, masks) {
            return true;
        }
        perm.swap(at, i);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders() {
        let cols: Vec<&[u32]> = vec![&[0, 1], &[1, 2]];
        assert!(check_order(3, cols.iter().copied(), &[0, 1, 2]).is_ok());
        assert!(check_order(3, cols.iter().copied(), &[1, 0, 2]).is_err());
        assert!(check_order(3, cols.iter().copied(), &[0, 1, 1]).is_err());
        assert!(check_order(3, cols.iter().copied(), &[0, 1]).is_err());
    }

    #[test]
    fn witnesses() {
        // the 3-cycle (M_I(1)) is not C1P; a path is
        let cycle: Vec<&[u32]> = vec![&[0, 1], &[1, 2], &[0, 2]];
        assert_eq!(check_witness(3, &cycle, &[0, 1, 2], &[0, 1, 2]), Ok(3));
        assert!(check_witness(3, &cycle, &[0, 1, 2], &[0, 1]).is_err());
        assert!(check_witness(3, &cycle, &[0, 1, 3], &[0, 1, 2]).is_err());
        assert!(check_witness(3, &cycle, &[0, 1, 2], &[0, 1, 3]).is_err());
    }

    #[test]
    fn large_witnesses() {
        // a 12-cycle (M_I(10)) is not C1P; the same path without its
        // closing column is
        let k = 12u32;
        let cols: Vec<Vec<u32>> =
            (0..k).map(|i| vec![i.min((i + 1) % k), i.max((i + 1) % k)]).collect();
        let cols: Vec<&[u32]> = cols.iter().map(Vec::as_slice).collect();
        let rows: Vec<u32> = (0..k).collect();
        assert_eq!(check_witness(12, &cols, &rows, &rows), Ok(12));
        assert!(check_witness(12, &cols, &rows, &rows[..11]).is_err());
    }
}
