//! PEHE bits recorded per seed under the default (bit-exact) numerics, for
//! the two training workloads. A run whose bits differ from its seed's
//! line is incorrect; a seed with no line is checked only for agreement
//! between the ops of the run. Each run prints its own line in this
//! format, so extending the table is a copy of that line into
//! `reference.txt`.

const TABLE: &str = include_str!("../reference.txt");

/// The table line for `workload`/`seed` with PEHE bits `(ood, sd)`.
pub fn line(workload: &str, seed: u64, (ood, sd): (u64, u64)) -> String {
    format!("{workload} {seed} {ood:016x} {sd:016x}")
}

/// The recorded `(pehe_ood, pehe_sd)` bits of `workload` at `seed`.
pub fn lookup(workload: &str, seed: u64) -> Option<(u64, u64)> {
    parse(TABLE, workload, seed)
}

fn parse(table: &str, workload: &str, seed: u64) -> Option<(u64, u64)> {
    table.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let f: Vec<&str> = l.split_whitespace().collect();
        match f.as_slice() {
            [w, s, ood, sd] if *w == workload && s.parse() == Ok(seed) => {
                Some((u64::from_str_radix(ood, 16).ok()?, u64::from_str_radix(sd, 16).ok()?))
            }
            _ => None,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn printed_lines_parse_back() {
        let l = line("fit_hap", 3, (0x3fe0_0000_0000_0001, 7));
        let table = format!("# comment\n{l}\nsweep_tarnet 3 1 2\n");
        assert_eq!(parse(&table, "fit_hap", 3), Some((0x3fe0_0000_0000_0001, 7)));
        assert_eq!(parse(&table, "sweep_tarnet", 3), Some((1, 2)));
        assert_eq!(parse(&table, "fit_hap", 4), None);
    }

    #[test]
    fn the_committed_table_is_well_formed() {
        for l in TABLE.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 4, "bad line {l:?}");
            let seed: u64 = f[1].parse().expect("seed");
            assert!(lookup(f[0], seed).is_some(), "unparsable line {l:?}");
        }
    }
}
