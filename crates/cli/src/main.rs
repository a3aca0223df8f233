//! `dbselect` — profile directories of text files as uncooperative
//! databases, persist their content summaries, and route queries with
//! shrinkage-based database selection. `dbselect --help` lists every
//! command and flag, rendered from the flag tables of `cli::commands`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(message) = cli::commands::run(&args) {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}
