//! The `figure10` binary rejects bad arguments before measuring
//! anything.

use std::process::Command;

fn exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_figure10"))
        .args(args)
        .output()
        .expect("figure10 runs")
        .status
        .code()
}

#[test]
fn an_unknown_scale_or_a_bad_run_count_exits_2() {
    let bad: [&[&str]; 5] = [
        &["--scale", "bogus", "--runs", "1"],
        &["--scale", "zero", "--runs", "x"],
        &["--scale", "zero", "--runs", "0"],
        &["--scale", "zero", "--runs", "0", "--json"],
        &["--scale"],
    ];
    for args in bad {
        assert_eq!(exit_code(args), Some(2), "figure10 {args:?}");
    }
}
