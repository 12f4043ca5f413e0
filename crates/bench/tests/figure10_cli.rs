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
fn scale_runs_and_other_unknown_arguments_exit_2() {
    let bad: [&[&str]; 5] = [
        &["--scale", "zero"],
        &["--runs", "3"],
        &["--json", "--scale", "paper"],
        &["--bogus"],
        &["--check"],
    ];
    for args in bad {
        assert_eq!(exit_code(args), Some(2), "figure10 {args:?}");
    }
}
