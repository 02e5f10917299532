//! `paper <name>|all [--scale <f64>] [--seed <u64>]` — print the named
//! experiment of [`bench::EXPERIMENTS`] (or all of them) as markdown.

use bench::Ctx;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (selected, args) = match bench::parse(&argv) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("paper: {message}\n{}", bench::usage());
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "# DomainNet paper results (scale {}, seed {}, {threads} threads)\n",
        args.scale, args.seed
    );
    let ctx = Ctx::new(args, threads);
    for experiment in selected {
        let (section, seconds) = bench::timed(|| bench::run(experiment, &ctx));
        let (name, paper_ref, ..) = experiment;
        println!("## {name} — {paper_ref}\n\n{section}\n[{name} took {seconds} s]\n");
    }
}
