//! Parameter (de)serialisation: plain JSON for debuggability.

use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::Path;

/// A named, versioned bundle of parameter tensors plus arbitrary metadata.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Checkpoint {
    pub(crate) format_version: u32,
    pub(crate) name: String,
    pub params: Vec<Tensor>,
    /// Free-form metadata (architecture hyper-parameters, standardizers…).
    pub meta: serde_json::Value,
}

impl Checkpoint {
    pub fn new(name: impl Into<String>, params: Vec<Tensor>, meta: serde_json::Value) -> Self {
        Checkpoint {
            format_version: 1,
            name: name.into(),
            params,
            meta,
        }
    }

    /// Write the checkpoint as JSON. A non-finite weight has no JSON
    /// number (it would be written as `null`, which [`Checkpoint::load`]
    /// rejects), so it fails the save with `InvalidData` before anything
    /// is written.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let invalid = |e| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        for (i, t) in self.params.iter().enumerate() {
            if let Some(v) = t.data().iter().find(|v| !v.is_finite()) {
                return Err(invalid(format!("tensor {i}: non-finite value {v}")));
            }
        }
        let json = serde_json::to_string(self).map_err(|e| invalid(e.to_string()))?;
        if let Some(dir) = path.as_ref().parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, json)
    }

    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let json = fs::read_to_string(path)?;
        serde_json::from_str(&json)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Copy a loaded parameter list into a model's parameters. Each tensor
/// must have its target's shape, exactly as many values as that shape
/// holds, and only finite values: a deserialised [`Tensor`] skips
/// [`Tensor::new`]'s length check, and a non-finite weight would only
/// surface later, as a panic or as a prediction a ReLU launders to zero.
pub fn load_into(params: Vec<Tensor>, targets: Vec<&mut Tensor>) -> Result<(), String> {
    if params.len() != targets.len() {
        return Err(format!(
            "checkpoint has {} tensors, model expects {}",
            params.len(),
            targets.len()
        ));
    }
    for (i, (src, dst)) in params.into_iter().zip(targets).enumerate() {
        if src.shape() != dst.shape() {
            return Err(format!(
                "tensor {i}: checkpoint shape {:?} vs model shape {:?}",
                src.shape(),
                dst.shape()
            ));
        }
        if src.data().len() != dst.numel() {
            return Err(format!(
                "tensor {i}: {} values for shape {:?}",
                src.data().len(),
                dst.shape()
            ));
        }
        if let Some(v) = src.data().iter().find(|v| !v.is_finite()) {
            return Err(format!("tensor {i}: non-finite value {v}"));
        }
        *dst = src;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dbat_nn_ckpt_test-{}", std::process::id()));
        let path = dir.join("model.json");
        let ck = Checkpoint::new(
            "test",
            vec![
                Tensor::new(vec![2], vec![1.0, 2.0]),
                Tensor::zeros(vec![2, 2]),
            ],
            serde_json::json!({"dim": 16}),
        );
        ck.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.name, "test");
        assert_eq!(loaded.params, ck.params);
        assert_eq!(loaded.meta["dim"].as_u64(), Some(16));
        std::fs::remove_dir_all(dir).ok();
    }

    /// A diverged weight fails the save instead of leaving a file that
    /// `load` cannot read back.
    #[test]
    fn save_rejects_non_finite_weights_and_writes_nothing() {
        let dir = std::env::temp_dir().join(format!("dbat_nn_ckpt_nan-{}", std::process::id()));
        let path = dir.join("model.json");
        let ck = Checkpoint::new(
            "diverged",
            vec![
                Tensor::zeros(vec![2]),
                Tensor::new(vec![2], vec![1.0, f64::NAN]),
            ],
            serde_json::json!({}),
        );
        let err = ck.save(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("tensor 1"), "{err}");
        assert!(err.to_string().contains("NaN"), "{err}");
        assert!(!dir.exists(), "a failed save created {}", dir.display());
    }

    #[test]
    fn load_into_checks_shapes() {
        let mut a = Tensor::zeros(vec![2]);
        let ok = load_into(vec![Tensor::new(vec![2], vec![1.0, 2.0])], vec![&mut a]);
        assert!(ok.is_ok());
        assert_eq!(a.data(), &[1.0, 2.0]);

        let mut b = Tensor::zeros(vec![3]);
        let err = load_into(vec![Tensor::new(vec![1], vec![1.0])], vec![&mut b]);
        assert!(err.is_err());

        let err2 = load_into(vec![], vec![&mut b]);
        assert!(err2.is_err());
    }

    /// A deserialised tensor can hold a wrong value count or a non-finite
    /// value; neither reaches the model.
    #[test]
    fn load_into_rejects_wrong_lengths_and_non_finite_values() {
        for json in [
            r#"{"shape": [2], "data": [1.0]}"#,
            r#"{"shape": [2], "data": [1.0, 2.0, 3.0]}"#,
            r#"{"shape": [2], "data": [1.0, 1e999]}"#,
        ] {
            let src: Tensor = serde_json::from_str(json).unwrap();
            let mut dst = Tensor::zeros(vec![2]);
            assert!(load_into(vec![src], vec![&mut dst]).is_err(), "{json}");
            assert_eq!(dst.data(), &[0.0, 0.0]);
        }
        let mut dst = Tensor::zeros(vec![1]);
        let nan = Tensor::new(vec![1], vec![f64::NAN]);
        assert!(load_into(vec![nan], vec![&mut dst]).is_err());
    }

    #[test]
    fn missing_file_errors() {
        assert!(Checkpoint::load("/nonexistent/deepbat/file.json").is_err());
    }
}
