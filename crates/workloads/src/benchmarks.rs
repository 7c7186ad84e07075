//! Benchmark workload definitions.

use caribou_model::builder::Workflow;
use caribou_model::constraints::Constraints;
use caribou_model::dag::WorkflowDag;
use caribou_model::dist::DistSpec;
use caribou_model::profile::WorkflowProfile;

/// Input size class used in the evaluation (§9.1: "We use small and large
/// input sizes to show the sensitivity of our results to input
/// variability").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputSize {
    /// The paper's small input (e.g. 69 KB DNA file, 33-page PDF, 1 KB
    /// text).
    Small,
    /// The paper's large input (e.g. 1.1 MB DNA file, 115-page PDF, 12 KB
    /// text).
    Large,
}

impl InputSize {
    /// Both sizes, for sweeps.
    pub const ALL: [InputSize; 2] = [InputSize::Small, InputSize::Large];

    /// Lower-case label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            InputSize::Small => "small",
            InputSize::Large => "large",
        }
    }
}

/// A fully-specified benchmark workload.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Benchmark name as used in the paper's figures.
    pub name: &'static str,
    /// Input size this instance is parameterized for.
    pub input: InputSize,
    /// Validated DAG.
    pub dag: WorkflowDag,
    /// Calibrated resource profile.
    pub profile: WorkflowProfile,
    /// Declared constraints (unconstrained by default; experiments attach
    /// compliance/tolerance settings themselves).
    pub constraints: Constraints,
}

fn exec(median_s: f64) -> DistSpec {
    DistSpec::LogNormal {
        median: median_s,
        sigma: 0.10,
    }
}

fn payload(bytes: f64) -> DistSpec {
    DistSpec::LogNormal {
        median: bytes,
        sigma: 0.05,
    }
}

fn finish(wf: Workflow, name: &'static str, input: InputSize) -> Benchmark {
    let (dag, profile, constraints) = wf
        .extract()
        .expect("benchmark definitions are structurally valid");
    Benchmark {
        name,
        input,
        dag,
        profile,
        constraints,
    }
}

/// DNA Visualization: a single-step workflow generating a visualization
/// from a DNA sequence file (SeBS). Compute-heavy relative to its small
/// payloads — the top-right of Fig. 8.
pub fn dna_visualization(input: InputSize) -> Benchmark {
    let (input_b, exec_s, output_b) = match input {
        InputSize::Small => (69e3, 6.0, 2.0e6),
        InputSize::Large => (1.1e6, 22.0, 24.0e6),
    };
    let mut wf = Workflow::new("dna_visualization", "1.0");
    wf.serverless_function("Visualize")
        .memory_mb(1769)
        .exec_time(exec(exec_s))
        .cpu_utilization(0.8)
        // The sequence comes from, and the visualization returns to,
        // home-region storage.
        .external_data_bytes(input_b + output_b)
        .register();
    wf.set_input(payload(2e3)); // request metadata only
    finish(wf, "DNA Visualization", input)
}

/// RAG Data Ingestion: a two-stage pipeline extracting document metadata
/// and generating embeddings for a document-chat application.
pub fn rag_data_ingestion(input: InputSize) -> Benchmark {
    let (pdf_b, extract_s, embed_s, text_b, emb_b) = match input {
        InputSize::Small => (1.3e6, 2.5, 7.0, 150e3, 1.2e6),
        InputSize::Large => (4.6e6, 8.0, 22.0, 1.5e6, 4.0e6),
    };
    let mut wf = Workflow::new("rag_data_ingestion", "1.0");
    let extract = wf
        .serverless_function("ExtractMetadata")
        .memory_mb(1024)
        .exec_time(exec(extract_s))
        .cpu_utilization(0.7)
        .external_data_bytes(pdf_b) // reads the PDF from home storage
        .register();
    let embed = wf
        .serverless_function("GenerateEmbeddings")
        .memory_mb(1769)
        .exec_time(exec(embed_s))
        .cpu_utilization(0.85)
        .external_data_bytes(emb_b) // writes embeddings to the home vector store
        .register();
    wf.invoke(extract, embed, None).payload(payload(text_b));
    wf.set_input(payload(4e3)); // ingestion request
    finish(wf, "RAG Data Ingestion", input)
}

/// Image Processing: a fan-out applying four transformations in parallel
/// (FunctionBench). Short executions moving the full image everywhere —
/// the transmission-heavy bottom-left of Fig. 8.
pub fn image_processing(input: InputSize) -> Benchmark {
    let (img_b, prep_s, tf_s) = match input {
        InputSize::Small => (222e3, 0.20, 0.12),
        InputSize::Large => (2.4e6, 0.7, 0.5),
    };
    let mut wf = Workflow::new("image_processing", "1.0");
    let prepare = wf
        .serverless_function("Prepare")
        .memory_mb(1024)
        .exec_time(exec(prep_s))
        .cpu_utilization(0.65)
        .register();
    for name in ["Flip", "Rotate", "Blur", "Grayscale"] {
        let tf = wf
            .serverless_function(name)
            .memory_mb(512)
            .exec_time(exec(tf_s))
            .cpu_utilization(0.7)
            // Each transform writes its result image back to home storage.
            .external_data_bytes(img_b)
            .register();
        wf.invoke(prepare, tf, None).payload(payload(img_b));
    }
    wf.set_input(payload(img_b));
    finish(wf, "Image Processing", input)
}

/// Text2Speech Censoring (§2.4, Fig. 3): text upload fans out to the
/// critical text-to-speech/conversion path and an off-critical-path
/// profanity detector; a synchronization node censors the audio. The
/// profanity→censor edge is conditional (censoring work only when
/// profanity was found). Tiny inputs, real compute — high Fig. 8 ratio.
pub fn text2speech_censoring(input: InputSize) -> Benchmark {
    let (text_b, t2s_s, conv_s, prof_s, censor_s, audio_b) = match input {
        InputSize::Small => (1e3, 8.0, 2.5, 1.5, 1.5, 2.5e6),
        InputSize::Large => (12e3, 16.0, 5.0, 3.0, 3.5, 14.0e6),
    };
    let mut wf = Workflow::new("text2speech_censoring", "1.0");
    let upload = wf
        .serverless_function("Upload")
        .memory_mb(512)
        .exec_time(exec(0.3))
        .cpu_utilization(0.5)
        .register();
    let t2s = wf
        .serverless_function("Text2Speech")
        .memory_mb(1769)
        .exec_time(exec(t2s_s))
        .cpu_utilization(0.85)
        .register();
    let conv = wf
        .serverless_function("Conversion")
        .memory_mb(1024)
        .exec_time(exec(conv_s))
        .cpu_utilization(0.75)
        .register();
    let prof = wf
        .serverless_function("ProfanityDetection")
        .memory_mb(1024)
        .exec_time(exec(prof_s))
        .cpu_utilization(0.7)
        .register();
    let censor = wf
        .serverless_function("Censor")
        .memory_mb(1769)
        .exec_time(exec(censor_s))
        .cpu_utilization(0.75)
        // Final audio is written back to home storage.
        .external_data_bytes(audio_b)
        .register();
    wf.invoke(upload, t2s, None).payload(payload(text_b));
    wf.invoke(upload, prof, None).payload(payload(text_b));
    wf.invoke(t2s, conv, None).payload(payload(audio_b));
    wf.invoke(conv, censor, None).payload(payload(audio_b));
    // Conditional: profanity present in roughly half the inputs.
    wf.invoke(prof, censor, Some(0.5)).payload(payload(2e3));
    wf.get_predecessor_data(censor);
    wf.set_input(payload(text_b));
    finish(wf, "Text2Speech Censoring", input)
}

/// Video Analytics: splits a video into chunks, recognizes objects in
/// parallel, and joins the results (vSwarm; INO dataset inputs).
/// Compute-dominated per byte moved — strong offloading candidate.
pub fn video_analytics(input: InputSize) -> Benchmark {
    let (video_b, split_s, recog_s, join_s, annot_b) = match input {
        InputSize::Small => (206e3, 1.5, 6.0, 1.0, 1.2e6),
        InputSize::Large => (2.4e6, 4.0, 15.0, 2.0, 4.5e6),
    };
    let mut wf = Workflow::new("video_analytics", "1.0");
    let split = wf
        .serverless_function("Split")
        .memory_mb(1769)
        .exec_time(exec(split_s))
        .cpu_utilization(0.75)
        .external_data_bytes(video_b) // reads the video from home storage
        .register();
    let mut chunks = Vec::new();
    for i in 0..4 {
        let c = wf
            .serverless_function(format!("Recognize_{i}"))
            .stage_of("recognize")
            .memory_mb(1769)
            .exec_time(exec(recog_s))
            .cpu_utilization(0.9)
            // Annotated output frames are written back to home storage.
            .external_data_bytes(annot_b)
            .register();
        wf.invoke(split, c, None).payload(payload(video_b / 4.0));
        chunks.push(c);
    }
    let join = wf
        .serverless_function("Join")
        .memory_mb(1024)
        .exec_time(exec(join_s))
        .cpu_utilization(0.6)
        .external_data_bytes(60e3) // writes recognized objects home
        .register();
    for c in chunks {
        wf.invoke(c, join, None).payload(payload(25e3));
    }
    wf.get_predecessor_data(join);
    wf.set_input(payload(4e3));
    finish(wf, "Video Analytics", input)
}

/// All five benchmarks at one input size, in the paper's Fig. 7 order.
pub fn all_benchmarks(input: InputSize) -> Vec<Benchmark> {
    vec![
        dna_visualization(input),
        rag_data_ingestion(input),
        image_processing(input),
        text2speech_censoring(input),
        video_analytics(input),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_validate() {
        for input in InputSize::ALL {
            for b in all_benchmarks(input) {
                b.profile
                    .validate(&b.dag)
                    .unwrap_or_else(|e| panic!("{} invalid: {e}", b.name));
            }
        }
    }

    #[test]
    fn table1_structural_features() {
        let dna = dna_visualization(InputSize::Small);
        assert_eq!(dna.dag.node_count(), 1);
        assert!(!dna.dag.has_sync_nodes());
        assert!(!dna.dag.has_conditional_edges());

        let rag = rag_data_ingestion(InputSize::Small);
        assert_eq!(rag.dag.node_count(), 2);
        assert!(!rag.dag.has_sync_nodes());

        let img = image_processing(InputSize::Small);
        assert_eq!(img.dag.node_count(), 5);
        assert!(!img.dag.has_sync_nodes());
        let sinks = img
            .dag
            .all_nodes()
            .filter(|n| img.dag.out_edges(*n).is_empty());
        assert_eq!(sinks.count(), 4);

        let t2s = text2speech_censoring(InputSize::Small);
        assert!(t2s.dag.has_sync_nodes());
        assert!(t2s.dag.has_conditional_edges());

        let va = video_analytics(InputSize::Small);
        assert!(va.dag.has_sync_nodes());
        assert!(!va.dag.has_conditional_edges());
        assert_eq!(va.dag.node_count(), 6);
    }

    #[test]
    fn large_inputs_cost_more_compute_and_bytes() {
        for (mk, _name) in [
            (dna_visualization as fn(InputSize) -> Benchmark, "dna"),
            (rag_data_ingestion, "rag"),
            (image_processing, "img"),
            (text2speech_censoring, "t2s"),
            (video_analytics, "va"),
        ] {
            let s = mk(InputSize::Small);
            let l = mk(InputSize::Large);
            let exec_s: f64 = s.profile.nodes.iter().map(|n| n.exec_time.mean()).sum();
            let exec_l: f64 = l.profile.nodes.iter().map(|n| n.exec_time.mean()).sum();
            assert!(exec_l > exec_s, "{}: exec", s.name);
            let bytes = |b: &Benchmark| -> f64 {
                b.profile
                    .edges
                    .iter()
                    .map(|e| e.payload_bytes.mean())
                    .sum::<f64>()
                    + b.profile
                        .nodes
                        .iter()
                        .map(|n| n.external_data_bytes)
                        .sum::<f64>()
            };
            assert!(bytes(&l) > bytes(&s), "{}: bytes", s.name);
        }
    }

    #[test]
    fn compute_to_transmission_spectrum_matches_fig8_ordering() {
        // Rough Fig. 8 proxy: mean exec seconds (per vCPU-weighted) versus
        // total bytes moved. Image Processing must be the most
        // transmission-heavy; Text2Speech the most compute-heavy relative
        // to bytes.
        let ratio = |b: &Benchmark| -> f64 {
            let exec: f64 = b
                .profile
                .nodes
                .iter()
                .map(|n| n.exec_time.mean() * (n.memory_mb as f64 / 1769.0))
                .sum();
            let bytes: f64 = b
                .profile
                .edges
                .iter()
                .map(|e| e.payload_bytes.mean())
                .sum::<f64>()
                + b.profile
                    .nodes
                    .iter()
                    .map(|n| n.external_data_bytes)
                    .sum::<f64>();
            exec / (bytes / 1e6)
        };
        let t2s = ratio(&text2speech_censoring(InputSize::Small));
        let img = ratio(&image_processing(InputSize::Large));
        let va = ratio(&video_analytics(InputSize::Small));
        assert!(t2s > 10.0 * img, "t2s {t2s} img {img}");
        assert!(va > img, "va {va} img {img}");
    }

    #[test]
    fn conditional_probability_declared() {
        let t2s = text2speech_censoring(InputSize::Small);
        let cond: Vec<&caribou_model::profile::EdgeProfile> = t2s
            .dag
            .all_edges()
            .filter(|e| t2s.dag.edge(*e).conditional)
            .map(|e| &t2s.profile.edges[e.index()])
            .collect();
        assert_eq!(cond.len(), 1);
        assert!((cond[0].probability - 0.5).abs() < 1e-12);
    }
}
