//! `mobilenet` — command-line front end to the reproduction.
//!
//! ```text
//! mobilenet overview  [--scale S] [--seed N]             dataset + collection summary
//! mobilenet ranking   [--scale S] [--seed N] [--uplink]  Figure 3 as a table
//! mobilenet peaks     [--scale S] [--seed N]             Figure 6 as a table
//! mobilenet map       [--scale S] [--seed N] [--service NAME] [--width W]
//! mobilenet forecast  [--scale S] [--seed N]             predictability report
//! mobilenet export    [--scale S] [--seed N] --out FILE  dataset CSV for offline analysis
//! mobilenet serve     [--scale S] [--seed N] [--addr A] [--weeks W] [--study NAME=SCALE[:SEED[:WEEKS]]]...
//! mobilenet query     [--addr A] [--use STUDY] [--body-only] Q...
//! mobilenet watch     [--addr A] [--use STUDY] [--topics LIST] [--events N]
//! ```
//!
//! Scales: `small` (1k communes), `medium` (6k), `france` (36k),
//! `national` (36k communes at paper session counts, ~10⁸ over the week,
//! streamed in bounded memory).
//!
//! Every command also accepts `--threads N` to pin the worker count of the
//! parallel pipeline stages (default: `MOBILENET_THREADS` or all cores) —
//! the output is identical at any thread count — and `--obs FILE` to
//! collect per-stage observability (spans, counters, histograms) and
//! write it to `FILE` as JSON (`MOBILENET_OBS` works too; see README).
//!
//! `--faults SPEC` injects capture-path faults (probe outages, record
//! loss/duplication, counter truncation, clock skew). `SPEC` is either
//! the preset `degraded` or a comma-separated key=value list, e.g.
//! `--faults seed=7,loss=0.05,dup=0.01,outage=gn:33-37`.
//!
//! `--chunk-size N` bounds the streaming-ingestion chunk size in
//! records: peak resident records stay at or below `N × workers`, and
//! the output is bit-identical at every chunk size.
//!
//! `serve` binds `--addr` (default `127.0.0.1:7878`), prints the bound
//! address, then ingests on background threads while answering queries;
//! it runs until a client sends `SHUTDOWN`. One study per `--study`
//! spec is served (`NAME=SCALE[:SEED[:WEEKS]]`, repeatable); without
//! `--study`, a single study named `default` runs at
//! `--scale`/`--seed`/`--weeks`. `--weeks W` folds `W` consecutive
//! weeks through the 168-hour ring in the memory of a one-week run.
//!
//! `query` connects a typed client to a running server, optionally
//! selects a study (`--use STUDY`), sends each `Q` as one protocol line
//! and prints the responses (`--body-only` drops the `OK <n>` frame —
//! handy for piping `DATASET` into a file to diff against a batch
//! `export`). `watch` subscribes to a study's delta stream
//! (`--topics watermark,version,rank,autocorr` or `all`) and prints one
//! `<seq> <payload>` line per event until the stream ends or `--events
//! N` have been printed.

use std::path::PathBuf;
use std::process::ExitCode;

use mobilenet::core::peaks::PeakConfig;
use mobilenet::core::ranking::service_ranking;
use mobilenet::core::report::overview_text;
use mobilenet::core::study::Study;
use mobilenet::core::topical::topical_profiles;
use mobilenet::core::{forecast, maps};
use mobilenet::traffic::{Direction, TopicalTime};
use mobilenet::{Error, FaultPlan, Pipeline, Scale, DEFAULT_SEED};

struct Args {
    command: String,
    scale: Scale,
    seed: u64,
    uplink: bool,
    service: String,
    width: usize,
    out: Option<PathBuf>,
    threads: Option<usize>,
    obs: Option<PathBuf>,
    faults: Option<FaultPlan>,
    chunk_size: Option<usize>,
    addr: String,
    body_only: bool,
    queries: Vec<String>,
    weeks: usize,
    studies: Vec<String>,
    use_study: Option<String>,
    topics: String,
    events: Option<usize>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: mobilenet <overview|ranking|peaks|map|forecast|export|serve|query|watch> \
         [--scale small|medium|france|national] [--seed N] [--uplink] \
         [--service NAME] [--width W] [--out FILE] [--threads N] [--obs FILE] \
         [--faults SPEC] [--chunk-size N] [--addr HOST:PORT] [--weeks N] \
         [--study NAME=SCALE[:SEED[:WEEKS]]] [--use STUDY] [--topics LIST] \
         [--events N] [--body-only] [QUERY...]"
    );
    ExitCode::from(2)
}

fn parse() -> Result<Args, ExitCode> {
    let mut argv = std::env::args().skip(1);
    let command = match argv.next() {
        Some(c) => c,
        None => return Err(usage()),
    };
    let mut args = Args {
        command,
        scale: Scale::Small,
        seed: DEFAULT_SEED,
        uplink: false,
        service: "Twitter".into(),
        width: 72,
        out: None,
        threads: None,
        obs: None,
        faults: None,
        chunk_size: None,
        addr: "127.0.0.1:7878".into(),
        body_only: false,
        queries: Vec::new(),
        weeks: 1,
        studies: Vec::new(),
        use_study: None,
        topics: "all".into(),
        events: None,
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--scale" => {
                let name = argv.next().ok_or_else(usage)?;
                args.scale = name.parse().map_err(|e: Error| {
                    eprintln!("{e}");
                    ExitCode::from(2)
                })?;
            }
            "--seed" => {
                args.seed = argv
                    .next()
                    .ok_or_else(usage)?
                    .parse()
                    .map_err(|_| usage())?
            }
            "--uplink" => args.uplink = true,
            "--service" => args.service = argv.next().ok_or_else(usage)?,
            "--width" => {
                args.width = argv
                    .next()
                    .ok_or_else(usage)?
                    .parse()
                    .map_err(|_| usage())?
            }
            "--out" => args.out = Some(PathBuf::from(argv.next().ok_or_else(usage)?)),
            "--threads" => {
                let n: usize = argv
                    .next()
                    .ok_or_else(usage)?
                    .parse()
                    .map_err(|_| usage())?;
                if n == 0 {
                    return Err(usage());
                }
                args.threads = Some(n);
            }
            "--obs" => args.obs = Some(PathBuf::from(argv.next().ok_or_else(usage)?)),
            "--chunk-size" => {
                let n: usize = argv
                    .next()
                    .ok_or_else(usage)?
                    .parse()
                    .map_err(|_| usage())?;
                if n == 0 {
                    return Err(usage());
                }
                args.chunk_size = Some(n);
            }
            "--faults" => {
                let spec = argv.next().ok_or_else(usage)?;
                args.faults = Some(FaultPlan::parse(&spec).map_err(|e| {
                    eprintln!("--faults: {e}");
                    ExitCode::from(2)
                })?);
            }
            "--addr" => args.addr = argv.next().ok_or_else(usage)?,
            "--body-only" => args.body_only = true,
            "--weeks" => {
                let n: usize = argv
                    .next()
                    .ok_or_else(usage)?
                    .parse()
                    .map_err(|_| usage())?;
                if n == 0 {
                    return Err(usage());
                }
                args.weeks = n;
            }
            "--study" => args.studies.push(argv.next().ok_or_else(usage)?),
            "--use" => args.use_study = Some(argv.next().ok_or_else(usage)?),
            "--topics" => args.topics = argv.next().ok_or_else(usage)?,
            "--events" => {
                let n: usize = argv
                    .next()
                    .ok_or_else(usage)?
                    .parse()
                    .map_err(|_| usage())?;
                if n == 0 {
                    return Err(usage());
                }
                args.events = Some(n);
            }
            other if args.command == "query" && !other.starts_with("--") => {
                args.queries.push(other.to_string());
            }
            _ => return Err(usage()),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(code) => return code,
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(code)) => code,
        Err(CliError::Pipeline(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// CLI failure: either a usage problem (its exit code is already decided)
/// or a pipeline error to print.
enum CliError {
    Usage(ExitCode),
    Pipeline(Error),
}

impl From<Error> for CliError {
    fn from(e: Error) -> Self {
        CliError::Pipeline(e)
    }
}

fn run(args: &Args) -> Result<(), CliError> {
    match args.command.as_str() {
        "serve" => return run_serve(args),
        "query" => return run_query(args),
        "watch" => return run_watch(args),
        _ => {}
    }
    let dir = if args.uplink {
        Direction::Up
    } else {
        Direction::Down
    };

    if args.command == "export" && args.out.is_none() {
        eprintln!("export needs --out FILE");
        return Err(CliError::Usage(ExitCode::from(2)));
    }

    eprintln!("generating {} study (seed {})...", args.scale, args.seed);
    let mut builder = Pipeline::builder().scale(args.scale).seed(args.seed);
    if let Some(n) = args.threads {
        builder = builder.threads(n);
    }
    if let Some(plan) = &args.faults {
        builder = builder.faults(plan.clone());
    }
    if let Some(n) = args.chunk_size {
        builder = builder.chunk_size(n);
    }
    // --obs enables collection; MOBILENET_OBS may also carry a path.
    let obs_path = args.obs.clone().or_else(mobilenet::obs::env_output_path);
    if args.obs.is_some() {
        builder = builder.obs(true);
    }
    let run = builder.run()?;
    let study: &Study = run.study();

    match args.command.as_str() {
        "overview" => {
            print!("{}", overview_text(study));
        }
        "ranking" => {
            let r = service_ranking(study, dir);
            println!(
                "{:<4} {:<17} {:<16} {:>8}",
                "#", "service", "category", "share"
            );
            for (i, s) in r.services.iter().enumerate() {
                println!(
                    "{:<4} {:<17} {:<16} {:>7.2}%",
                    i + 1,
                    s.name,
                    s.category.label(),
                    s.share_of_total * 100.0
                );
            }
            println!(
                "top-20 share {:.1}%, unclassified {:.1}%",
                r.head_share * 100.0,
                r.unclassified_share * 100.0
            );
        }
        "peaks" => {
            let profiles = topical_profiles(study, dir, &PeakConfig::paper());
            print!("{:<17}", "service");
            for t in TopicalTime::ALL {
                print!(" {:>10}", t.label().split(' ').next().unwrap());
            }
            println!();
            for p in &profiles {
                print!("{:<17}", p.name);
                for t in TopicalTime::ALL {
                    print!(" {:>10}", if p.has_peak[t.index()] { "peak" } else { "·" });
                }
                println!();
            }
        }
        "map" => {
            let Some(spec) = study.catalog().by_name(&args.service) else {
                return Err(Error::UnknownService(args.service.clone()).into());
            };
            let grid = maps::per_user_map(study, dir, spec.id.index(), args.width);
            println!(
                "per-subscriber weekly {} traffic of {} (log scale):",
                dir.label(),
                spec.name
            );
            print!("{}", grid.to_ascii());
        }
        "forecast" => {
            let report = forecast::forecast_report(study, dir, 120);
            println!("{:<17} {:>12} {:>12}", "service", "naive sMAPE", "HW sMAPE");
            for f in &report {
                println!(
                    "{:<17} {:>11.1}% {:>11.1}%",
                    f.name,
                    f.naive.smape * 100.0,
                    f.holt_winters.smape * 100.0
                );
            }
        }
        "export" => {
            let path = args
                .out
                .as_ref()
                .expect("--out is checked before the study is built");
            let file = std::fs::File::create(path).map_err(Error::Io)?;
            let mut writer = std::io::BufWriter::new(file);
            study.dataset().write_to(&mut writer).map_err(Error::Io)?;
            use std::io::Write as _;
            writer.flush().map_err(Error::Io)?;
            eprintln!("dataset written to {}", path.display());
        }
        other => {
            eprintln!("unknown command {other:?}");
            return Err(CliError::Usage(usage()));
        }
    }

    // Observability report: JSON when a path was given, and a
    // human-readable summary on stderr. It reads the process-wide
    // registry, which holds the finished run plus the analysis stages
    // the subcommand recorded after it.
    if mobilenet::obs::enabled() {
        if let Some(path) = obs_path {
            mobilenet::obs::write_json(&path).map_err(Error::Io)?;
            eprintln!("observability report written to {}", path.display());
        } else {
            eprint!("{}", mobilenet::obs::snapshot().render());
        }
    }
    Ok(())
}

/// One `--study NAME=SCALE[:SEED[:WEEKS]]` spec, resolved.
struct StudySpec {
    name: String,
    scale: Scale,
    seed: u64,
    weeks: usize,
}

/// Parses a `--study` spec; seed and weeks fall back to the global
/// `--seed`/`--weeks` flags.
fn parse_study_spec(
    spec: &str,
    default_seed: u64,
    default_weeks: usize,
) -> Result<StudySpec, String> {
    let (name, rest) = spec
        .split_once('=')
        .ok_or_else(|| format!("bad --study {spec:?} (expected NAME=SCALE[:SEED[:WEEKS]])"))?;
    let mut parts = rest.split(':');
    let scale: Scale = parts
        .next()
        .unwrap_or_default()
        .parse()
        .map_err(|e: Error| format!("bad --study {spec:?}: {e}"))?;
    let seed = match parts.next() {
        None => default_seed,
        Some(t) => t
            .parse()
            .map_err(|_| format!("bad --study {spec:?}: seed {t:?}"))?,
    };
    let weeks = match parts.next() {
        None => default_weeks,
        Some(t) => t
            .parse()
            .map_err(|_| format!("bad --study {spec:?}: weeks {t:?}"))?,
    };
    if weeks == 0 {
        return Err(format!("bad --study {spec:?}: weeks must be at least 1"));
    }
    if parts.next().is_some() {
        return Err(format!(
            "bad --study {spec:?} (expected NAME=SCALE[:SEED[:WEEKS]])"
        ));
    }
    Ok(StudySpec {
        name: name.to_string(),
        scale,
        seed,
        weeks,
    })
}

/// `mobilenet serve`: register every requested study, bind the query
/// server, then stream each study's weeks on background threads while
/// answering clients; runs until `SHUTDOWN`.
fn run_serve(args: &Args) -> Result<(), CliError> {
    if let Some(n) = args.threads {
        mobilenet::par::set_thread_override(Some(n));
    }
    // The health endpoint needs the registry live regardless of --obs.
    mobilenet::obs::set_enabled(Some(true));
    let config_err = |e: String| CliError::Pipeline(Error::Config(e));
    let specs: Vec<StudySpec> = if args.studies.is_empty() {
        vec![StudySpec {
            name: "default".into(),
            scale: args.scale,
            seed: args.seed,
            weeks: args.weeks,
        }]
    } else {
        args.studies
            .iter()
            .map(|s| parse_study_spec(s, args.seed, args.weeks))
            .collect::<Result<_, _>>()
            .map_err(config_err)?
    };
    let registry = mobilenet::StudyRegistry::new();
    let mut entries = Vec::with_capacity(specs.len());
    for spec in &specs {
        let mut config = spec.scale.config();
        if let Some(plan) = &args.faults {
            config = config.with_faults(plan.clone());
        }
        if let Some(n) = args.chunk_size {
            config = config.with_chunk_size(n);
        }
        eprintln!(
            "generating {} model for study {} (seed {}, {} week(s))...",
            spec.scale, spec.name, spec.seed, spec.weeks
        );
        let entry = registry
            .register_config(
                &spec.name,
                spec.scale.name(),
                &config,
                spec.seed,
                spec.weeks,
            )
            .map_err(config_err)?;
        entries.push(entry);
    }
    let mut server =
        mobilenet::spawn_registry_server(registry.clone(), &args.addr).map_err(Error::Io)?;
    // Scripts scrape this line for the (possibly ephemeral) bound port;
    // it must appear before ingestion starts.
    println!("listening on {}", server.addr());
    for entry in &entries {
        registry.start(entry).map_err(config_err)?;
    }
    server.wait();
    registry.shutdown();
    let failures = mobilenet::obs::snapshot()
        .counter("serve.ingest_errors")
        .unwrap_or(0);
    if failures > 0 {
        return Err(Error::Config(format!("{failures} ingestion run(s) failed")).into());
    }
    Ok(())
}

fn client_err(e: mobilenet::serve::ClientError) -> CliError {
    CliError::Pipeline(Error::Config(e.to_string()))
}

/// `mobilenet query`: send each query through the typed client and print
/// the responses.
fn run_query(args: &Args) -> Result<(), CliError> {
    let mut client = mobilenet::Client::connect(&args.addr).map_err(client_err)?;
    if let Some(study) = &args.use_study {
        client.use_study(study).map_err(client_err)?;
    }
    let mut failed = false;
    for q in &args.queries {
        match client.request(q) {
            Ok(body) => {
                if !args.body_only {
                    println!("OK {}", body.len());
                }
                for line in &body {
                    println!("{line}");
                }
            }
            Err(mobilenet::serve::ClientError::Server(msg)) => {
                eprintln!("{q}: ERR {msg}");
                failed = true;
            }
            Err(e) => return Err(client_err(e)),
        }
    }
    let _ = client.quit();
    if failed {
        return Err(Error::Config("one or more queries failed".into()).into());
    }
    Ok(())
}

/// `mobilenet watch`: subscribe to a study's delta stream and print one
/// `<seq> <payload>` line per event.
fn run_watch(args: &Args) -> Result<(), CliError> {
    let mut client = mobilenet::Client::connect(&args.addr).map_err(client_err)?;
    if let Some(study) = &args.use_study {
        let info = client.use_study(study).map_err(client_err)?;
        eprintln!("watching {}", info.protocol_line());
    }
    let topics = mobilenet::Topic::parse_list(&args.topics)
        .map_err(|e| CliError::Pipeline(Error::Config(e)))?;
    let subscription = client.subscribe(topics).map_err(client_err)?;
    for (printed, item) in subscription.enumerate() {
        let (seq, event) = item.map_err(client_err)?;
        println!("{seq} {}", event.to_wire());
        if args.events.is_some_and(|n| printed + 1 >= n) {
            break;
        }
    }
    Ok(())
}
